"""The package's public surface."""

import inspect
import typing

import monosafe


def test_all_names_resolve():
    # a name deleted from a module but left in ``__all__`` fails here at once
    assert len(set(monosafe.__all__)) == len(monosafe.__all__)
    missing = [name for name in monosafe.__all__ if not hasattr(monosafe, name)]
    assert not missing



def _functions(cls):
    """The functions ``cls`` itself defines: methods, static and class
    methods, property getters."""
    for attr, member in vars(cls).items():
        func = getattr(member, "__func__", getattr(member, "fget", member))
        if inspect.isfunction(func):
            yield f"{cls.__name__}.{attr}", func


def test_annotations_resolve():
    # ``get_type_hints`` raises NameError on an annotation that names a type
    # its module never imports
    targets = []
    for name in monosafe.__all__:
        obj = getattr(monosafe, name)
        if callable(obj):
            targets.append((name, obj))
        if inspect.isclass(obj):
            targets.extend(_functions(obj))
    failed = []
    for label, obj in targets:
        try:
            typing.get_type_hints(obj)
        except NameError as e:
            failed.append(f"{label}: {e}")
    assert not failed
