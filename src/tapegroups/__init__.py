"""Normal forms and linear-time tape multiplication for three groups.

Subpackages:
  tapevm      instrumented multi-tape abstraction (the cost model)
  spiral      square spiral enumeration of Z^2
  oracle_groups  independent algebraic models used as differential ground truth
  z2wrz2, z2wrf2, thompson_f  codecs plus two-tape generator programs
  framework   uniform representation interface, word problem, benchmarks
  cli         command-line front end
"""

from .framework import (REPRESENTATIONS, differential_fuzz, linearity_bench,
                        quasigeodesic_probe, representation_thompson_f,
                        representation_z2wrf2, representation_z2wrz2,
                        word_problem, word_to_nf)

__version__ = "0.1.0"

__all__ = [
    "REPRESENTATIONS", "differential_fuzz", "linearity_bench",
    "quasigeodesic_probe", "representation_thompson_f",
    "representation_z2wrf2", "representation_z2wrz2",
    "word_problem", "word_to_nf",
]
