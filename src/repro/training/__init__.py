"""The two-phase training framework (§4.3, Algorithms 1 and 2).

Phase I generates seeded application sets, times every candidate container,
and records ``(seed, best DS)`` pairs — keeping a winner only when it beats
every alternative by the configured margin.  Each record also carries
the feature vector of the application's run on the *original* container,
which Phase I ran anyway.  Phase II joins them into ``(features, best
DS)`` training rows.  The paper instead regenerates each recorded
application from its seed and replays it, to keep disk use constant;
here a record stores 20 floats per original kind.
"""

from repro.training.dataset import TrainingSet
from repro.training.phase1 import Phase1Result, SeedRecord, run_phase1
from repro.training.phase2 import run_phase2

__all__ = [
    "Phase1Result",
    "SeedRecord",
    "TrainingSet",
    "run_phase1",
    "run_phase2",
]
