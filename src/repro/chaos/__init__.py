"""Seeded chaos campaigns over the sweep substrate.

A campaign composes every fault dimension the repo knows — simulated KNEM/
FIFO faults and rank crashes/stalls (:mod:`repro.faults.plan`), warm-pool
worker deaths (``os._exit`` mid-cell), poison cells that kill every worker
that touches them, filesystem faults around checkpoint appends
(:mod:`repro.chaos.fsfaults`), and post-hoc journal corruption — into one
randomized-but-reproducible run (every choice derives from the campaign
seed via blake2b, :mod:`repro.chaos.seeds`), then checks invariant oracles
(:mod:`repro.chaos.oracles`):

- the final, resumed CSV is **byte-identical** to a fault-free-substrate
  serial run under the same simulated fault plan, or the run ended in a
  **typed** abort;
- **KNEM-San** reports zero findings and zero leaked regions under the
  campaign's fault plan;
- the checkpoint **journal is always recoverable** (corrupt records skip
  and recompute, torn tails drop);
- the **pool never wedges**: poison cells quarantine after a bounded
  number of respawns instead of requeueing forever;
- a reopened **result cache** answers every cell of the grid without
  running it, byte-identical to the reference.

``python -m repro.chaos --seed N`` runs one campaign from the command
line and writes a JSON report.
"""

from repro.chaos.campaign import CampaignSpec, run_campaign
from repro.chaos.injections import Dimensions, derive_dimensions
from repro.chaos.report import CampaignReport

__all__ = ["CampaignSpec", "run_campaign", "CampaignReport",
           "Dimensions", "derive_dimensions"]
