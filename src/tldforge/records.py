"""The record builder, for the records that a NamedTuple cannot be.

``@record`` rebuilds a class as a record: its fields are its annotated
class attributes, in order, with their class values as defaults, kept in
``__slots__``.  It gives the class an ``__init__`` (which calls
``__post_init__`` last, if the class defines one), ``__eq__``,
``__hash__``, ``__repr__`` and, as a NamedTuple has them, ``_fields``,
``_replace`` and ``_asdict``.

- Equality holds only between records of one class, over every field but
  those that say where a value came from: ``pos``, its source position,
  and ``provenance``.  The hash is that of the tuple of compared fields.
- ``pos`` is not printed.
- A record is frozen: assigning or deleting an attribute raises
  ``AttributeError``.  A class that sets ``__hash__ = None``, as a mutable
  value must, gets assignable fields instead.
- A list or dict default is copied for each instance.

The methods of a class are compiled from one source text, in about half
the time a dataclass takes: it compiles each method apart, and imports
``inspect`` to document the class.
"""

_ORIGIN = ("pos", "provenance")


def _no_assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _asdict(self) -> dict:
    return {name: getattr(self, name) for name in self._fields}


def _reduce(self):
    # copy and pickle rebuild the record through __init__; their default,
    # setting each slot, would meet a frozen record's __setattr__
    return type(self), tuple(getattr(self, name) for name in self._fields)


def record(cls: type) -> type:
    """``cls`` rebuilt as a record (see the module docstring)."""
    ns = dict(vars(cls))
    fields = tuple(ns.get("__annotations__", ()))
    defaults = {name: ns.pop(name) for name in fields if name in ns}
    frozen = ns.get("__hash__", True) is not None
    params, body, scope = [], [], {}
    for name in fields:
        value = name
        if name in defaults:
            params.append(f"{name}=_d_{name}")
            scope[f"_d_{name}"] = defaults[name]
            if isinstance(defaults[name], (list, dict)):
                value = f"{name}.copy() if {name} is _d_{name} else {name}"
        else:
            params.append(name)
        # a frozen record's slots are set through their descriptors, bound
        # below once the class exists
        body.append(f"    _set_{name}(self, {value})" if frozen else f"    self.{name} = {value}")
    if "__post_init__" in ns:
        body.append("    self.__post_init__()")
    compared = [name for name in fields if name not in _ORIGIN]
    mine = "".join(f"self.{name}, " for name in compared)
    theirs = "".join(f"other.{name}, " for name in compared)
    printed = ", ".join(f"{name}={{self.{name}!r}}" for name in fields if name != "pos")
    exec("\n".join([
        f"def __init__(self, {', '.join(params)}):", *body,
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __repr__(self):",
        f"    return f'{{type(self).__qualname__}}({printed})'",
        "def _replace(self, **changes):",
        "    return type(self)(" + "".join(f"changes.pop({name!r}, self.{name}), "
                                       for name in fields) + "**changes)",
    ]), scope)
    ns.update({m: scope[m] for m in ("__init__", "__eq__", "__hash__", "__repr__", "_replace")},
              __slots__=fields, _fields=fields, _asdict=_asdict, __reduce__=_reduce)
    if frozen:
        ns.update(__setattr__=_no_assign, __delattr__=_no_delete)
    else:
        ns["__hash__"] = None
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    cls = type(cls)(cls.__name__, cls.__bases__, ns)
    if frozen:
        scope.update((f"_set_{name}", getattr(cls, name).__set__) for name in fields)
    return cls
