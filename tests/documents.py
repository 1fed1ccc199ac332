"""Writers of the JSON documents that kakeyalab reads, and a point-set
reader: the tests build grid and point-set files with them.

A document is a domain header (domain, q, modulus, and n or d) followed by
grid values as [re, im] pairs in point order, or by point indices.
kakeyalab.maximal.domain_from_json reads the header back.
"""

from __future__ import annotations

import numpy as np

from kakeyalab.constructions import PointSet
from kakeyalab.field import DomainError
from kakeyalab.maximal import _json_int, domain_from_json


def domain_to_json(domain):
    """The domain header of a document: tag, q, modulus, and n or d."""
    f = domain.field
    return {"domain": domain.kind, "q": f.q,
            "modulus": list(f.modulus) if f.modulus else None,
            "n" if domain.kind == "heisenberg" else "d": domain.n}


def grid_to_json(F):
    """The domain header, then [re, im] pairs in point order."""
    return {**domain_to_json(F.domain),
            "values": [[float(z.real), float(z.imag)]
                       for z in np.asarray(F.values, dtype=np.complex128)]}


def pointset_to_json(ps):
    return {**domain_to_json(ps.domain), "points": ps.indices}


def pointset_from_json(doc):
    domain = domain_from_json(doc)
    try:
        points = [_json_int(i, "a point index") for i in doc["points"]]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed point-set document: {exc}") from exc
    return PointSet(domain, points)
