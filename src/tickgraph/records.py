"""Value classes written out, the two error families, and names bound on first use.

The package's value types (AST nodes, parameter terms, controls, links,
matches, outcomes, patterns, MDP choices, verdicts) are plain classes with
``__slots__`` and a written ``__init__``.  :class:`Record` gives them
equality, hashing and a repr from two class attributes:

* ``_fields``: the fields, in constructor order, that the repr shows and
  equality reads (default: every slot; a slot that caches something derived
  from the fields is left out);
* ``_ignore``: fields that equality and hashing skip (default: none), such
  as a source position.

Two records are equal when they are of the same class and their compared
fields are equal as a tuple, and a record hashes as that tuple; the repr
reads ``Name(field=value, ...)``.  A class whose instances may change
(`Mdp`, `Model`, `RuleEntry`, `Choice`) sets ``__hash__ = None``.  Every
other record is immutable by convention: nothing stops an assignment, and
no code makes one.

Decorating a class with ``dataclasses.dataclass`` instead generates and
compiles its methods each time the module is imported: about 0.8 ms per
class on a shared 2-core x86 machine, where defining a record class takes
about 20 microseconds.

Every error a command reports by name is a :class:`ResourceLimit` (exit 3)
or an :class:`InputError` (exit 2), so the command line catches them
without importing the modules that raise them; :func:`on_first_use` binds
another module's names when they are first needed.
"""

from __future__ import annotations

from importlib import import_module
from operator import attrgetter


def _getter(names: tuple[str, ...]):
    """A function from a record to the tuple of its `names` fields."""
    if len(names) == 1:  # attrgetter of one name returns the bare value
        one = attrgetter(names[0])
        return lambda record: (one(record),)
    return attrgetter(*names) if names else lambda record: ()


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _ignore: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("_fields", cls.__slots__))
        cls._key = staticmethod(_getter(tuple(f for f in cls._fields if f not in cls._ignore)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class ResourceLimit(Exception):
    """A budget or limit tripped on a legal input: states, search depth,
    digits, a probability that rounds to 0, or sweeps (exit 3)."""


class InputError(Exception):
    """The model or property file is at fault (exit 2)."""


def on_first_use(namespace: dict, sources: dict[str, tuple[str, ...]]):
    """``(load, __getattr__)`` for a module whose `namespace` takes names
    from other tickgraph modules (`sources`: relative module name to the
    names it gives) only once some code needs them.

    ``load()`` imports those modules and binds each name that `namespace`
    does not hold yet, so a wrap or a patch bound first stays in place; the
    module calls it before it uses any of the names.  The module's
    ``__getattr__`` (PEP 562) calls it for a name not yet bound, so
    ``module.name`` and ``from module import name`` resolve from a fresh
    import.
    """
    origin = {name: module for module, names in sources.items() for name in names}

    def load() -> None:
        for name, module in origin.items():
            if name not in namespace:
                namespace[name] = getattr(import_module(module, __package__), name)

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        load()
        return namespace[name]

    return load, __getattr__
