"""PEP 562 lazy package exports.

A package lists its public names and the module each one lives in; the
module is imported the first time the name is read.  This keeps
``import repro`` and ``import repro.service.client`` (what ``repro submit``
needs) from loading the checking engine, the knowledge base or the daemon.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, object], exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` / ``__dir__`` pair for a package's ``globals()``.

    ``exports`` maps each public name to the module that defines it; a name
    equal to that module's last dotted component (``"api": "repro.api"``)
    exports the module itself.  A resolved name is cached in ``namespace``,
    so each is looked up once.
    """
    table: Dict[str, str] = dict(exports)

    def __getattr__(name: str) -> object:
        module_name = table.get(name)
        if module_name is None:
            raise AttributeError(
                "module %r has no attribute %r" % (namespace["__name__"], name)
            )
        module = importlib.import_module(module_name)
        if module_name.rpartition(".")[2] == name:
            value: object = module
        else:
            value = getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
