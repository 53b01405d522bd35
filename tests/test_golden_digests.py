"""Golden digests: the committed behaviour of four reference configs.

Each reference config runs for a 120 s horizon, once with the journal
probes ``digruber diff`` installs and once bare for its results.  Three
numbers pin a run: the journal length, the journal's chained CRC, and
:func:`repro.experiments.parallel.summary_digest` of its results.  A
refactor that claims "no behaviour change" must reproduce all three
exactly; unlike a two-sided differential pair, a golden also catches
drift in which both sides move together.

The fixture was captured with both sides of each retired
implementation pair (kernel fast paths on/off, event-batch vs scalar
dispatch, vectorized vs scalar site drain, indexed vs scanning state
view) agreeing on every entry.  Regenerate it only for an intended
behaviour change, and say why in the change log::

    PYTHONPATH=src python tests/test_golden_digests.py \\
        > tests/fixtures/golden_digests.json
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.check.differ import _diff_config, _run_journaled
from repro.experiments.configs import smoke_config
from repro.experiments.parallel import summarize, summary_digest
from repro.experiments.runner import run_experiment
from repro.sim.sharded import run_sharded

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "golden_digests.json")
SEED = 20050101
HORIZON_S = 120.0


def reference_configs() -> dict:
    """Name -> config of every golden reference run."""
    smoke = _diff_config(HORIZON_S, SEED)
    return {
        # The differential smoke: 3 DPs, sync traffic, spans on.
        "diff-smoke": smoke,
        # Congested (16 clients on 72 CPUs): site queues run deep, so
        # the FIFO drain starts long prefixes.
        "diff-vec": smoke.with_(n_clients=16, n_sites=6, total_cpus=72,
                                name="diff-vec"),
        # Chaos with the strict invariant checker riding along.
        "dp-crash-strict": smoke.with_(chaos_scenario="dp_crash_restart",
                                       check_enabled=True,
                                       check_strict=True,
                                       name="diff-chaos"),
        # Space-parallel kernel: 4 neighborhoods on 2 shards.
        "sharded-2": smoke_config(
            decision_points=4, n_clients=16, n_sites=16, total_cpus=800,
            duration_s=HORIZON_S, sync_interval_s=30.0,
            monitor_interval_s=60.0, seed=SEED, name="diff-sharded"),
    }


def golden_digest(name: str, config) -> dict:
    """Run one reference config and return its three golden numbers."""
    if name.startswith("sharded-"):
        result = run_sharded(config, n_shards=int(name.split("-")[1]),
                             journal=True)
        journal, summary = result.journal, result.digest
    else:
        journal = _run_journaled(config)
        summary = summary_digest(summarize(run_experiment(config)))
    return {"events": len(journal), "crc": f"{journal.digest:#010x}",
            "summary": summary}


def _fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_reference_config():
    assert sorted(_fixture()) == sorted(reference_configs())


@pytest.mark.parametrize("name", sorted(reference_configs()))
def test_reference_run_matches_golden(name):
    assert golden_digest(name, reference_configs()[name]) == _fixture()[name]


if __name__ == "__main__":
    json.dump({name: golden_digest(name, config)
               for name, config in reference_configs().items()},
              sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
