"""Hypothesis strategies and seeded words shared by several test modules."""

import random

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


@st.composite
def mixed_words(draw, min_strands: int, max_strands: int,
                max_letters: int) -> BraidWord:
    """min_strands-max_strands strands and 0-max_letters letters of mixed signs."""
    m = draw(st.integers(min_strands, max_strands))
    if m == 1:
        return BraidWord(1)
    # one draw a letter: 1 - m .. m - 2 shifted onto +-1 .. +-(m - 1)
    letter = st.integers(1 - m, m - 2).map(lambda x: x + (x >= 0))
    n = draw(st.integers(0, max_letters))
    return BraidWord(m, tuple(draw(st.lists(letter, min_size=n, max_size=n))))


def random_word(strands: int, length: int, seed: int) -> BraidWord:
    """A seeded random word, each letter +-1 .. +-(strands - 1)."""
    rng = random.Random(seed)
    return BraidWord(strands, tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                                    for _ in range(length)))
