"""The Split-C benchmark suite (Section 5.1 of the paper).

Every ``run_*`` checks the answer its program left in the Split-C heap
and raises :class:`WrongResult` rather than time a wrong one.
"""

from .matmul import PAPER_MM_16, PAPER_MM_128, MatmulConfig, matmul_program, run_matmul
from .radix_sort import RadixConfig, radix_program, run_radix_sort, verify_sorted
from .runner import AppResult, WrongResult
from .sample_sort import SampleConfig, run_sample_sort, sample_program

__all__ = [
    "AppResult",
    "WrongResult",
    "MatmulConfig",
    "PAPER_MM_128",
    "PAPER_MM_16",
    "run_matmul",
    "matmul_program",
    "RadixConfig",
    "run_radix_sort",
    "verify_sorted",
    "radix_program",
    "SampleConfig",
    "run_sample_sort",
    "sample_program",
]
