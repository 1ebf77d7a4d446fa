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


@st.composite
def far_pair_words(draw) -> BraidWord:
    """1-8 strands and 0-60 letters: up to 32 mixed letters with up to four
    sigma_j^e w sigma_j^-e inserted, each w up to five letters off the
    indices j - 1, j and j + 1 (a later insertion may land inside an
    earlier one)."""
    m = draw(st.integers(1, 8))
    if m == 1:
        return BraidWord(1)

    def letter(gens):
        return st.sampled_from(gens).flatmap(lambda j: st.sampled_from((j, -j)))

    letters = draw(st.lists(letter(range(1, m)), max_size=32))
    for _ in range(draw(st.integers(0, 4))):
        j = draw(st.integers(1, m - 1))
        e = draw(st.sampled_from((1, -1)))
        far = [g for g in range(1, m) if abs(g - j) > 1]
        w = draw(st.lists(letter(far), max_size=5)) if far else []
        pos = draw(st.integers(0, len(letters)))
        letters[pos:pos] = [e * j, *w, -e * j]
    return BraidWord(m, tuple(letters))


def random_word(strands: int, length: int, seed: int) -> BraidWord:
    """A seeded random word, each letter +-1 .. +-(strands - 1)."""
    rng = random.Random(seed)
    return BraidWord(strands, tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                                    for _ in range(length)))
