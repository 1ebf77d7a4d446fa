"""Hypothesis strategies shared by several test modules."""

from hypothesis import strategies as st

from linksig.braid import BraidWord


@st.composite
def burau_words(draw) -> BraidWord:
    """1-8 strands and 0-40 letters of mixed signs; half miss a generator."""
    m = draw(st.integers(1, 8))
    if m == 1:
        return BraidWord(1)
    gens = list(range(1, m))
    if m > 2 and draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(gens), min_size=1,
                             max_size=m - 2, unique=True))
    letter = st.sampled_from(gens).flatmap(lambda j: st.sampled_from((j, -j)))
    n = draw(st.integers(0, 40))
    return BraidWord(m, tuple(draw(st.lists(letter, min_size=n, max_size=n))))
