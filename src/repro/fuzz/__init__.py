"""Coverage-guided scenario fuzzing: searching beyond Table 2.

The paper hand-crafts five anomaly classes; this package searches the
scenario space *around* them.  ``genome`` defines the typed search space,
``mutate`` the seeded operators, ``coverage`` the feedback signal drawn
from the existing diagnosis/monitor planes, ``engine`` the deterministic
generation loop, ``minimize`` the delta-debugging reducer, and ``corpus``
the on-disk reproducer format replayed by the test suite.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "corpus": (
        "CORPUS_FORMAT", "CorpusEntry", "entry_from_evaluation", "load_corpus",
        "replay_entry", "save_entry",
    ),
    "coverage": (
        "NO_VERDICT", "PAPER_CLASSES", "FuzzObservation", "graph_shape_hash",
        "interest_of", "observe",
    ),
    "engine": (
        "FuzzConfig", "FuzzEvaluation", "FuzzReport", "evaluate_genome",
        "run_fuzz", "seed_genomes",
    ),
    "genome": (
        "FLOAT_RANGES", "GENOME_FORMAT", "INT_RANGES", "TOPOLOGY_KINDS",
        "ScenarioGenome", "genome_fields",
    ),
    "minimize": ("minimize",),
    "mutate": ("MUTATION_AXES", "crossover", "mutate", "random_genome"),
})

# These two functions share their submodule's name: resolved lazily, the
# submodule would replace the function the first time it is imported.
from .minimize import minimize  # noqa: E402
from .mutate import mutate  # noqa: E402
