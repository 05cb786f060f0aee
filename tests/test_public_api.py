import lne
from lne import crossent, entropy, numkit, optimize, qdeform

MODULES = (numkit, qdeform, entropy, crossent, optimize)


def test_package_exports_each_modules_names_once():
    # `from .module import *` lets a later module silently shadow a name
    # that an earlier one exports
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(names) == len(set(names))
    assert sorted(lne.__all__) == sorted(names)


def test_each_export_is_the_object_its_module_defines():
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(lne, name) is obj
            assert getattr(obj, "__module__", mod.__name__) == mod.__name__, name
