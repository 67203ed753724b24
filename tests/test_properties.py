"""Property tests over generator words, beside the seeded corpus.

Hypothesis draws words of up to 30 generators and, on a failure, shrinks the
word to a minimal witness.  Runs are derandomized, so every run checks the
same words.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapegroups import framework as fw

GROUPS = sorted(fw.REPRESENTATIONS)
MAX_WORD = 30


def _words(rep):
    return st.lists(st.sampled_from(rep.generators), max_size=MAX_WORD)


def _oracle_fold(rep, word):
    elem = rep.oracle_identity
    for gen in word:
        elem = rep.oracle_mul(elem, gen)
    return elem


@pytest.mark.parametrize("group", GROUPS)
def test_fold_matches_the_oracle_and_cancels(group):
    rep = fw.REPRESENTATIONS[group]()

    @settings(derandomize=True, database=None, deadline=None, max_examples=1000)
    @given(_words(rep))
    def check(word):
        nf = fw.word_to_nf(rep, word)
        assert rep.decode(nf) == _oracle_fold(rep, word)
        inverse = [rep.inverse[gen] for gen in reversed(word)]
        assert fw.word_to_nf(rep, word + inverse) == rep.identity_nf

    check()
