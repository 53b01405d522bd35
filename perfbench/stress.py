"""Show from traced runs that each workload stresses what it claims.

Usage: ``python3 perfbench/stress.py [SEED] [OUT.json]``

Runs ``run.py --trace 1`` once per workload and checks three claims:

* the engine + state + selector share of the traced run is higher on
  ``grid10x-sparse`` than on ``paper-1x``;
* kernel events per query are higher on ``paper-1x`` and
  ``grid3x-cliff`` than on ``grid10x-sparse``;
* RPC timeouts per query are highest on ``grid3x-cliff``.

Exits 1 if a claim fails or a traced run is incorrect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper-1x", "grid10x-sparse", "grid3x-cliff")


def traced(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, check=True)
    lines = out.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def claims(ledgers: dict) -> dict:
    def m(w, name):
        return ledgers[w]["result"]["metrics"][name]["value"]

    share = {w: m(w, "engine_selector.share") for w in WORKLOADS}
    epq = {w: m(w, "kernel.events_per_query") for w in WORKLOADS}
    tpq = {w: m(w, "net.rpc_timeouts_per_query") for w in WORKLOADS}
    return {
        "engine_selector_share": {
            "values": share,
            "holds": share["grid10x-sparse"] > share["paper-1x"]},
        "events_per_query": {
            "values": epq,
            "holds": min(epq["paper-1x"], epq["grid3x-cliff"])
            > epq["grid10x-sparse"]},
        "rpc_timeouts_per_query": {
            "values": tpq,
            "holds": max(tpq, key=tpq.get) == "grid3x-cliff"},
    }


def main(argv: list[str]) -> int:
    seed = int(argv[0]) if argv else 1
    ledgers = {w: traced(w, seed, seconds=1) for w in WORKLOADS}
    report = {"seed": seed, "claims": claims(ledgers), "ledgers": ledgers}
    ok = (all(c["holds"] for c in report["claims"].values())
          and all(r["result"]["correct"] for r in ledgers.values()))
    report["ok"] = ok
    if len(argv) > 1:
        with open(argv[1], "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(report["claims"], indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
