"""Hawkeye reproduction: diagnosing RDMA network performance anomalies
with PFC provenance (SIGCOMM 2025).

Public API layout:

- :mod:`repro.topology` — fabric graphs, builders, ECMP routing
- :mod:`repro.sim` — discrete-event RDMA/PFC network simulator
- :mod:`repro.telemetry` — Hawkeye's PFC-aware epoch telemetry
- :mod:`repro.collection` — detection agent, polling packets, collection
- :mod:`repro.core` — provenance graph construction and diagnosis
- :mod:`repro.baselines` — SpiderMon, NetSight, polling/telemetry ablations
- :mod:`repro.workloads` — traffic generation and anomaly injectors
- :mod:`repro.experiments` — scenario runner, scoring, overhead accounting

Each package re-exports its public names lazily (:func:`lazy_exports`):
importing a module costs that module and what it imports, not its
siblings.
"""

import importlib

__version__ = "1.0.0"


def lazy_exports(namespace, table):
    """PEP 562 re-exports for the package whose ``globals()`` is ``namespace``.

    ``table`` maps each submodule to the public names it defines.  Returns
    ``(__all__, __getattr__, __dir__)`` for the package to bind: a name
    imports its submodule on first access and is then cached in
    ``namespace``.  A name that is also a submodule's name must be imported
    eagerly instead, or loading that submodule would rebind it.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
