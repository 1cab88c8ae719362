"""The output check: what a correct run of the benchmark must produce.

A report is compared through :func:`comparable`: its ``to_dict()``
without ``wall_seconds`` and ``extra["path"]`` (a timing and a
provenance stamp), in canonical JSON.  Nothing compared depends on
timing, arrival order, ports, temp paths or ``recorded_at``.

The oracles (each a :meth:`Check.expect`):

* warm entries equal the cold entries of the same keys;
* serve reports equal ``run_sweep`` reports of the same keys;
* a seeded sample of ``analytic-grid`` items equals a simulated
  ``herlihy`` run byte for byte;
* Theorem 4.2: every all-conforming item under ``uniform`` timing
  ends all-Deal.  All-conforming items under ``jittered`` timing are
  left out: the README's timing-model table states that their liveness
  can erode at the exact-Δ boundary, and claims only Theorem 4.9 there;
* Theorem 4.9: no conforming party ends ``Underwater``, on every item
  (no workload uses ``stragglers`` timing, the one regime where the
  theorem is not claimed);
* on the seeds recorded in ``digests.json`` (the default seed and one
  more), each workload's digest over (run key, comparable report) of
  batch 0 equals the recorded one.

:func:`self_test` corrupts one field of one report and shows the check
fails.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Mapping

from perfbench.workloads import Item

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: Fields of ``RunReport.to_dict()`` the check leaves out.
NOT_COMPARED = ("wall_seconds",)
NOT_COMPARED_EXTRA = ("path",)


def comparable(report: Mapping) -> bytes:
    data = {k: v for k, v in report.items() if k not in NOT_COMPARED}
    data["extra"] = {
        k: v for k, v in (report.get("extra") or {}).items() if k not in NOT_COMPARED_EXTRA
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def digest(pairs: Iterable[tuple[str, bytes]]) -> str:
    """One SHA-256 over ``(run key, comparable bytes)``, sorted by key."""
    hasher = hashlib.sha256()
    for key, blob in sorted(pairs):
        hasher.update(key.encode() + b"\n" + blob + b"\n")
    return hasher.hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(workload, {}).get(str(seed))


class Check:
    """Collects every failed expectation of one run."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checked = 0

    def expect(self, condition: bool, message: str) -> bool:
        self.checked += 1
        if not condition:
            self.failures.append(message)
        return condition

    @property
    def ok(self) -> bool:
        return not self.failures

    def theorems(self, item: Item, report: Mapping) -> None:
        """Theorems 4.2 and 4.9 on one report dict."""
        outcomes = report["outcomes"]
        name = item.scenario.name
        if item.conforming:
            self.expect(
                all(o == "Deal" for o in outcomes.values()),
                f"Theorem 4.2: {name} is all-conforming but not all-Deal: {outcomes}",
            )
        self.expect(
            all(outcomes[v] != "Underwater" for v in report["conforming"]),
            f"Theorem 4.9: a conforming party of {name} ends Underwater: {outcomes}",
        )

    def same(self, key: str, expected: Mapping, actual: Mapping, what: str) -> None:
        self.expect(
            comparable(expected) == comparable(actual),
            f"{what}: report bytes differ for key {key[:16]}",
        )

    def digest(self, workload: str, seed: int, value: str) -> None:
        expected = recorded_digest(workload, seed)
        if expected is not None:
            self.expect(
                value == expected,
                f"digest of {workload} seed {seed} is {value[:16]}, recorded {expected[:16]}",
            )


def self_test(item: Item, key: str, report: Mapping) -> bool:
    """Corrupt one field of a copy of ``report`` and show the check
    catches it: the warm==cold comparison and the digest must both
    change.  Returns ``True`` when the corruption was detected."""
    corrupted = json.loads(json.dumps(report))
    corrupted["published_bytes"] = corrupted["published_bytes"] + 1
    probe = Check()
    probe.same(key, report, corrupted, "self-test")
    moved = digest([(key, comparable(report))]) != digest([(key, comparable(corrupted))])
    outcome_probe = Check()
    flipped = json.loads(json.dumps(report))
    party = sorted(flipped["outcomes"])[0]
    flipped["outcomes"][party] = "Underwater"
    flipped["conforming"] = sorted(set(flipped["conforming"]) | {party})
    outcome_probe.theorems(item, flipped)
    return not probe.ok and moved and not outcome_probe.ok
