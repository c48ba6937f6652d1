"""Hypothesis strategies shared by the fuzz tests."""
from hypothesis import strategies as st

# Pieces of table files: numerals, separators, line ends, annotations, and
# characters that look like digits or signs but are not ASCII numerals.
_PIECE = st.sampled_from(
    (*"0123456789", " ", "\t", "\r", "\n", "#", "name:", "١", "²", "+", "-", "x")
)


def _insert(text, edits):
    for at, piece in edits:
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    return text


TABLE_TEXTS = st.one_of(
    # Small valid files with a few pieces inserted, so that many draws parse.
    st.builds(
        _insert,
        st.sampled_from(("1\n1\n", "2\n2 2\n1 1\n", "# name: d3\n3\n1 3 2\n3 2 1\n2 1 3\n")),
        st.lists(st.tuples(st.integers(0, 40), _PIECE), max_size=2),
    ),
    st.lists(_PIECE, max_size=40).map("".join),
)
