"""Correctness gate over the runs of one workload at one seed.

A run passes when it reports no invariant violation (workload invariants,
storage residue, the durability oracle, the open-loop conservation
ledger) and its simulated fingerprint — commits, aborts, events, the
simulated metrics and the config hash — equals that of the first run of
the same simulation seed: the simulator is deterministic for a seed,
traced or not, so any difference is a bug.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def check_runs(runs: List[dict]) -> Tuple[int, List[str]]:
    """Return ``(failed_runs, messages)``; a run that crashed is a dict
    with an ``"error"`` entry instead of results."""
    failed = 0
    messages: List[str] = []
    reference: Dict[object, Tuple[int, dict]] = {}
    for index, run in enumerate(runs, 1):
        problems = []
        if "error" in run:
            problems.append(run["error"])
        else:
            violations = run["violations"]
            if violations:
                problems.append(f"{len(violations)} invariant violation(s), "
                                f"first: {violations[0]}")
            seed = run.get("seed")
            if seed not in reference:
                reference[seed] = (index, run["fingerprint"])
            else:
                first, expected = reference[seed]
                diverged = [
                    f"{key} {run['fingerprint'].get(key)!r} != "
                    f"{value!r}"
                    for key, value in expected.items()
                    if run["fingerprint"].get(key) != value]
                if diverged:
                    problems.append("simulated fingerprint diverged from "
                                    f"run {first}: " + "; ".join(diverged))
        if problems:
            failed += 1
            messages.extend(f"run {index}: {p}" for p in problems)
    return failed, messages
