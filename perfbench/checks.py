"""Correctness checks run on every timed operation, outside its timed region.

Each check returns a list of problems; an empty list means the output is
correct.  Conservation is recomputed from the raw per-request records
(``ServingResult.outcomes`` and ``.rejected``), never from the summariser.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import List, Sequence


def canonical(payload) -> str:
    """Byte-stable JSON: sorted keys, shortest round-trip floats, NaN kept."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)


def digest(payloads: Sequence[object]) -> str:
    """SHA-256 of the payloads' canonical JSON."""
    return hashlib.sha256(canonical(list(payloads)).encode("utf-8")).hexdigest()


def same_metrics(first, second) -> List[str]:
    """The two ``ServingMetrics`` are identical, field for field."""
    a, b = dataclasses.asdict(first), dataclasses.asdict(second)
    if canonical(a) == canonical(b):
        return []
    differing = sorted(k for k in a if canonical(a[k]) != canonical(b.get(k)))
    return [f"engine metrics differ in {', '.join(differing)}"]


def conservation(requests: Sequence[object], result) -> List[str]:
    """Every offered request ends exactly once, as an outcome or a rejection."""
    problems: List[str] = []
    position = {id(request): index for index, request in enumerate(requests)}
    seen = [0] * len(requests)
    for outcome in result.outcomes:
        if not 0 <= outcome.index < len(requests):
            problems.append(f"outcome index {outcome.index} out of range")
            continue
        if requests[outcome.index] is not outcome.request:
            problems.append(f"outcome {outcome.index} carries another request")
        seen[outcome.index] += 1
    for request in result.rejected:
        index = position.get(id(request))
        if index is None:
            problems.append("a rejected request was never offered")
            continue
        seen[index] += 1
    missing = sum(1 for count in seen if count == 0)
    repeated = sum(1 for count in seen if count > 1)
    if missing or repeated:
        problems.append(f"{missing} requests never ended, {repeated} ended twice")
    metrics = result.metrics
    if metrics.offered != len(requests):
        problems.append(f"offered {metrics.offered} != {len(requests)} generated")
    if metrics.offered != len(result.outcomes) + len(result.rejected):
        problems.append(
            f"offered {metrics.offered} != {len(result.outcomes)} completed "
            f"+ {len(result.rejected)} rejected"
        )
    if metrics.completed != len(result.outcomes) or metrics.rejected != len(result.rejected):
        problems.append("completed/rejected counts disagree with the records")
    return problems


def tenant_conservation(name: str, tenant) -> List[str]:
    """Fleet tenant: offered = completed + rejected, each request once."""
    problems: List[str] = []
    metrics = tenant.metrics
    ended = len(tenant.outcomes) + len(tenant.rejected)
    if metrics.offered != ended:
        problems.append(f"tenant {name}: offered {metrics.offered} != {ended} ended")
    if metrics.completed != len(tenant.outcomes) or metrics.rejected != len(tenant.rejected):
        problems.append(f"tenant {name}: completed/rejected disagree with the records")
    indices = [outcome.index for outcome in tenant.outcomes]
    if len(set(indices)) != len(indices):
        problems.append(f"tenant {name}: a request completed twice")
    requests = [outcome.request for outcome in tenant.outcomes] + list(tenant.rejected)
    if len({id(request) for request in requests}) != len(requests):
        problems.append(f"tenant {name}: a request ended twice")
    return problems
