"""Columnar batch execution of the adjustment primitives.

The hot paths of alignment and normalization walk Python objects one tuple
at a time; this package re-expresses them as whole-array operations over a
columnar encoding of the relation (int64 endpoint arrays plus a
dictionary-encoded equality key, see :mod:`repro.columnar.encoding`) with
NumPy kernels (:mod:`repro.columnar.kernels`).

Consumers:

* the relation-level operators (``align_relation``/``normalize``) expose a
  ``"columnar"`` strategy, which their ``"auto"`` strategy picks whenever θ
  is absent or an equality key;
* the engine's ``ColumnarAdjustmentNode`` and the partition-parallel workers
  execute :class:`~repro.engine.executor.partition.AdjustmentTask` batches
  through :mod:`repro.columnar.rows`.

Everything here is bound by one hard contract: row mode and columnar mode
produce the identical relation on every input.
"""

from repro.columnar.encoding import (
    ColumnarFrame,
    ColumnarUnsupported,
    encode_keys,
    encode_relation,
    peek_endpoint_arrays,
    remap_codes,
)
from repro.columnar.kernels import (
    align_pieces,
    normalize_pieces,
    normalize_pieces_from_intervals,
    overlap_pairs,
)
from repro.columnar.rows import adjust_rows_columnar

__all__ = [
    "ColumnarFrame",
    "ColumnarUnsupported",
    "adjust_rows_columnar",
    "align_pieces",
    "encode_keys",
    "encode_relation",
    "normalize_pieces",
    "normalize_pieces_from_intervals",
    "overlap_pairs",
    "peek_endpoint_arrays",
    "remap_codes",
]
