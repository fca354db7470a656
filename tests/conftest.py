import io

import pytest

from hybridhh.core import STAR, HeadList, PrivacyParams, Stage

# Log fields: queries that prefix each other, the star both spelled "*"
# and literal, non-ASCII strings, and a trailing NUL.
LOG_WORDS = ("q1", "q10", "q2", "*", STAR, "\u00e9", "\u65e5\u672c", "q1/u", "q1\x00")


def text_log(text: str) -> io.TextIOWrapper:
    """The log `text` as a UTF-8 text stream, line endings untranslated,
    which `parse_log` reads through its buffer as it reads a file."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="")


def make_final_head_list(num_queries: int, urls_per_query: int) -> HeadList:
    """Final-stage head list with named queries/urls plus the wildcard."""
    entries = {
        f"q{i}": tuple(f"q{i}/u{j}" for j in range(urls_per_query))
        for i in range(num_queries)
    }
    entries[STAR] = (STAR,)
    return HeadList(entries, Stage.FINAL)


def make_augmented_head_list(k: int, k_q: int) -> HeadList:
    """Client-augmented list with k queries total and k_q urls per regular query."""
    hl = make_final_head_list(k - 1, k_q - 1)
    return hl.augment_for_clients()


@pytest.fixture
def default_params() -> PrivacyParams:
    return PrivacyParams()
