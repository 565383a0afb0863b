"""Output checks of the benchmark: each returns the list of problems
found (empty when the output is correct).

* artifacts: every artifact's ``text`` and ``csv`` hash to the digest
  recorded in ``digests.json`` (its ``wall_s`` is not part of it);
* kernel lanes: one lane of a lane-engine batch re-run on the scalar
  reference interpreter reports the same cycles and instructions;
* service books: every request the benchmark sent is accounted for,
  and its books match ``SigningService.counters()``;
* traced pass: the layer self times add up to the pass's wall time,
  and the time no layer covers stays small.
"""

from __future__ import annotations

import hashlib
import json
import os

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


def artifact_digest(payload: dict) -> str:
    """sha256 over an artifact payload's rendered text and CSV."""
    blob = payload["text"].encode() + b"\0" + payload["csv"].encode()
    return hashlib.sha256(blob).hexdigest()


def recorded_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def artifact_problems(digests: dict[str, str],
                      recorded: dict[str, str]) -> list[str]:
    """Artifacts whose digest differs from (or is missing in) the
    recorded set."""
    problems = []
    for artifact, digest in digests.items():
        want = recorded.get(artifact)
        if want is None:
            problems.append(f"{artifact}: no recorded digest")
        elif digest != want:
            problems.append(f"{artifact}: digest {digest[:12]} != "
                            f"recorded {want[:12]}")
    return problems


def lane_problems(label: str, lane: dict, scalar_cycles: int,
                  scalar_instructions: int) -> list[str]:
    """A lane-engine lane against its scalar re-run."""
    problems = []
    if lane["cycles"] != scalar_cycles:
        problems.append(f"{label}: lane cycles {lane['cycles']} != "
                        f"scalar {scalar_cycles}")
    if lane["instructions"] != scalar_instructions:
        problems.append(f"{label}: lane instructions "
                        f"{lane['instructions']} != scalar "
                        f"{scalar_instructions}")
    return problems


#: Largest share of a traced pass that no wrapped layer covers
#: (``other``, the root span's own self time).
MAX_OTHER_SHARE = 0.05
#: Largest gap between the traced pass and the pass's wall time read
#: on the child's own clock, as a share of the latter.
MAX_CLOCK_GAP = 0.01


def trace_problems(self_s: dict[str, float], root: str,
                   wall_s: float) -> list[str]:
    """A traced pass's layer self times (``root``'s own self time being
    ``other``) against the pass's wall time measured apart from the
    tracer: they must add up to it, and ``other`` must stay a small
    share of it."""
    problems = []
    total = sum(self_s.values())
    if abs(total - wall_s) > MAX_CLOCK_GAP * wall_s:
        problems.append(f"layer self times {total:.6f}s != pass wall "
                        f"{wall_s:.6f}s")
    other = self_s.get(root, 0.0)
    if other > MAX_OTHER_SHARE * wall_s:
        problems.append(f"other {other:.6f}s is over "
                        f"{MAX_OTHER_SHARE:.0%} of the {wall_s:.6f}s pass")
    return problems


def books_problems(books: dict, before: dict, after: dict) -> list[str]:
    """The benchmark's books (``sent``/``ok``/``failed``/``shed``/
    ``drained``) against the service counters' movement."""
    def delta(key: str) -> int:
        return after.get(key, 0) - before.get(key, 0)

    problems = []
    if books["ok"] != delta("requests_served"):
        problems.append(f"ok {books['ok']} != served "
                        f"{delta('requests_served')}")
    if books["failed"] != delta("requests_failed"):
        problems.append(f"failed {books['failed']} != service failed "
                        f"{delta('requests_failed')}")
    if books["shed"] != delta("requests_shed"):
        problems.append(f"shed {books['shed']} != service shed "
                        f"{delta('requests_shed')}")
    if books["sent"] != delta("admitted") + books["shed"] \
            + books["drained"]:
        problems.append(f"sent {books['sent']} != admitted "
                        f"{delta('admitted')} + shed {books['shed']} + "
                        f"drained {books['drained']}")
    if books["sent"] != books["ok"] + books["failed"] + books["shed"] \
            + books["drained"]:
        problems.append(f"sent {books['sent']} != outcomes "
                        f"{books['ok'] + books['failed'] + books['shed'] + books['drained']}")
    return problems


def record() -> None:
    """Rewrite ``digests.json`` from an inline regeneration of every
    artifact (``PYTHONPATH=src python3 perfbench/checks.py``)."""
    import repro.api as api

    result = api.sweep(jobs=1, cache=False, fast=True)
    failed = [o.artifact for o in result.outcomes if not o.ok]
    if failed:
        raise SystemExit(f"artifacts failed: {failed}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({o.artifact: artifact_digest(o.payload)
                   for o in result.outcomes}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record()
