"""qpusim: a deterministic simulated geo-distributed query engine built from
composable query processing units (scan, index, merge, federation, cache,
filter) over a replicated key-value store."""

from .core import (
    HyperRegion,
    Interval,
    Kind,
    Predicate,
    Query,
    StoredObject,
    Version,
    query_to_region,
    region_to_query,
)
from .simkernel import Kernel
from .store import DcReplica, WriteOp

__version__ = "0.1.0"

__all__ = [
    "DcReplica",
    "HyperRegion",
    "Interval",
    "Kernel",
    "Kind",
    "Predicate",
    "Query",
    "StoredObject",
    "Version",
    "WriteOp",
    "query_to_region",
    "region_to_query",
    "__version__",
]
