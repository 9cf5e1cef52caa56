"""Property/fuzz tests for the XPath pipeline.

Round-trip property: any generated :class:`QueryPattern` rendered to
XPath (:func:`pattern_to_xpath`) and compiled back
(:func:`compile_xpath`, ordered by its result exactly when the original
has an ``order_by``) yields an isomorphic pattern ordered by the
corresponding node — compilation renumbers node ids, so isomorphism is
checked via :func:`canonical_signature`.

Robustness property: no input string, however malformed, may escape
the front-end as anything but a :class:`ReproError` subclass.  The
fuzzer throws curated near-miss inputs and random token soup at the
compiler; a bare ``ValueError``/``IndexError``/... is a bug.
"""

from __future__ import annotations

import random
import string

import pytest

from repro.core.pattern import canonical_signature
from repro.errors import ReproError, XPathSyntaxError
from repro.workloads import make_rng, random_pattern
from repro.xpath import compile_xpath
from repro.xpath.render import pattern_to_xpath

ROUND_TRIPS = 300
SOUP_CASES = 400

MALFORMED = [
    "",
    "   ",
    "/",
    "//",
    "a",
    "///a",
    "//a//",
    "//a[",
    "//a]",
    "//a[@]",
    "//a[.//]",
    "//a[1]",
    "//a[@id=]",
    "//a/[b]",
    "//a b",
    "//a[text()=unquoted]",
    "//a[text() ~ 'x']",
    "//a@b",
    "//9a",
    "//a[[b]]",
    "//*[",
    "//a['x' =]",
    "//a[@id='x' and]",
    "//a[text()='x'",
]


def test_round_trip_random_patterns():
    rng = make_rng(77)
    for _ in range(ROUND_TRIPS):
        pattern = random_pattern(
            rng, tags=("alpha", "beta", "gamma", "delta"),
            min_nodes=1, max_nodes=6, wildcard_chance=0.15,
            predicate_chance=0.4, order_by_chance=0.5)
        ordered = pattern.order_by is not None
        xpath = pattern_to_xpath(pattern)
        recompiled = compile_xpath(xpath, order_by_result=ordered)
        assert canonical_signature(recompiled) == \
            canonical_signature(pattern), xpath
        # rendering must be a fixed point once in compiled form
        assert canonical_signature(compile_xpath(
            pattern_to_xpath(recompiled), order_by_result=ordered)) == \
            canonical_signature(pattern)


@pytest.mark.parametrize("text", MALFORMED, ids=repr)
def test_malformed_inputs_raise_repro_errors(text):
    with pytest.raises(ReproError):
        compile_xpath(text)


def test_syntax_errors_carry_a_position():
    with pytest.raises(XPathSyntaxError) as excinfo:
        compile_xpath("//a[@id=]")
    assert excinfo.value.position is not None


@pytest.mark.slow
def test_token_soup_never_escapes_the_error_hierarchy():
    """Random character soup either compiles or raises ReproError."""
    alphabet = string.ascii_lowercase + "/[]@*()'\"=<>! ."
    rng = random.Random(424242)
    compiled = 0
    for _ in range(SOUP_CASES):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 24)))
        try:
            compile_xpath(text)
            compiled += 1
        except ReproError:
            pass
    # sanity: the soup is not all garbage nor all valid
    assert 0 <= compiled < SOUP_CASES


def test_mutated_valid_paths_never_escape():
    """Single-character mutations of valid XPaths stay well-behaved."""
    rng = make_rng(99)
    for _ in range(120):
        pattern = random_pattern(
            rng, tags=("a", "b", "c"), min_nodes=2, max_nodes=4,
            predicate_chance=0.3, order_by_chance=0.0)
        text = pattern_to_xpath(pattern)
        position = rng.randrange(len(text))
        mutation = rng.choice("/[]@*='x ")
        mutated = text[:position] + mutation + text[position + 1:]
        try:
            compile_xpath(mutated)
        except ReproError:
            pass
