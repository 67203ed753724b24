"""Thompson's group F on tape: block normal forms and the R-counter.

Elements are strings a^r0 b^s0 # ... # a^rM b^sM.  Multiplying by x1^-1 pushes
a negative generator through the tail; the two-tape counter subroutine finds
the index R where it settles, and a bounded case analysis performs the edit.
The x1 direction guesses the case and verifies itself.  Everything is checked
against exact dyadic piecewise-linear homeomorphisms of [0,1].
"""

from tapegroups import thompson_f as tf
from tapegroups.framework import representation_thompson_f
from tapegroups.oracle_groups import PL_IDENTITY, pl_eval_normalform, pl_mul_gen

F = representation_thompson_f()

# A tiny multiplication table around the identity.
print("u\t\tu*x1^-1")
for u in ["", "a", "b", "aa#b", "b###b"]:
    print(f"{u or 'e':8s}\t{F.apply(u, 'x1-')}")

# The counter that drives the case analysis.
for u in ["b", "ab", "b###b", "abb#a#b"]:
    rr = tf.compute_r(u)
    print(f"R({u!r}) = {rr.R}, settled past the whole tail: {rr.case_flag}")

# Random walk, cross-checked against the PL action after every step.
import random
rng = random.Random(0)
nf, elem = "", PL_IDENTITY
for step in range(200):
    gen = rng.choice(tf.GENERATORS)
    nf = F.apply(nf, gen)
    elem = pl_mul_gen(elem, gen)
    assert pl_eval_normalform(nf) == elem
print(f"\n200-step walk ends at {nf!r}")
print(f"PL map has {len(elem.pts)} breakpoints; "
      f"|nf| = {len(nf)} stays within a constant of the walk length")

# The guess-and-check direction inverts exactly.
back = nf
for gen in ("x1", "x1-"):
    back = F.apply(back, gen)
print("x1 then x1^-1 returns the same string:", back == nf)
