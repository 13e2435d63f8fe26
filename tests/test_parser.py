import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from scflogic import (
    InvalidDomain,
    LinearOrder,
    Profile,
    ScfTable,
    all_profiles,
    enumerate_models,
    valid_in_model,
)
from scflogic.encodings import (
    PropertyId,
    ballot_agent,
    ballot_profile,
    best_response,
    better,
    citsov,
    dom,
    mon,
    nodict,
    property_formula,
    rho,
    strproof,
    trueprofile,
)
from scflogic.files import save_scf
from scflogic.logic import (
    TRUE,
    And,
    Box,
    Diamond,
    Iff,
    Implies,
    Not,
    Or,
    Out,
    Pref,
    PrefBox,
    Rep,
)
from scflogic.game import property_oracle
from scflogic import parser
from scflogic.parser import KEYWORDS, Context, ParseError, SourceSpan, format_formula, parse

from conftest import K2, K3


CTX2 = Context(2, K2)
CTX3 = Context(2, K3)


def test_parse_atoms_and_connectives():
    assert parse("rep(1,a,b) & ~rep(1,b,a)", CTX2) == And(
        Rep(1, "a", "b"), Not(Rep(1, "b", "a"))
    )
    assert parse("b <-> (rep(1,b,a) & rep(2,b,a))", CTX2) == Iff(
        Out("b"), And(Rep(1, "b", "a"), Rep(2, "b", "a"))
    )
    assert parse("true", CTX2) == TRUE
    assert parse("false", CTX2) == Not(TRUE)


def test_parse_modalities():
    assert parse("<{1,2}> b", CTX2) == Diamond({1, 2}, Out("b"))
    assert parse("<N> b", CTX2) == Diamond({1, 2}, Out("b"))
    assert parse("<{}> a", CTX2) == Diamond(frozenset(), Out("a"))
    assert parse("[{1}] a", CTX2) == Box({1}, Out("a"))
    assert parse("pref(2) a", CTX2) == Pref(2, Out("a"))
    assert parse("Pref(2) a", CTX2) == PrefBox(2, Out("a"))


def test_parse_ballot_macro_in_coalition_diamond():
    got = parse("<{1,2}> (ballot(1,[a,c,b]) & ballot(2,[c,a,b]))", CTX3)
    want = Diamond(
        {1, 2},
        And(
            ballot_agent(1, LinearOrder(("a", "c", "b"))),
            ballot_agent(2, LinearOrder(("c", "a", "b"))),
        ),
    )
    assert got == want


def test_precedence_and_associativity():
    ctx = Context(2, K3)
    assert parse("~a & b | c -> a <-> b", ctx) == parse(
        "(((~a & b) | c) -> a) <-> b", ctx
    )
    assert parse("a -> b -> c", ctx) == parse("a -> (b -> c)", ctx)
    assert parse("a <-> b <-> c", ctx) == parse("a <-> (b <-> c)", ctx)
    assert parse("pref(1) a | b", ctx) == Or(Pref(1, Out("a")), Out("b"))


def test_whitespace_insensitive():
    assert parse("rep(1,a,b)&~rep(1,b,a)", CTX2) == parse(
        "  rep( 1 , a , b )  &  ~ rep(1,b,a) ", CTX2
    )


def test_whitespace_is_ascii_only():
    """Space, tab, LF, CR, VT and FF separate tokens; other characters
    that `str.isspace` accepts, such as \\x1c or U+3000, are lexical
    errors at their own position, like any character that starts no token,
    before any later error.  A lone quote is an unterminated string that
    runs to the end of the text."""
    assert parse(" \t\n\r\x0b\x0crep(1,a,b)\x0c&\ta\n", CTX2) == parse("rep(1,a,b) & a", CTX2)
    for text, at in (
        ("a\x1c", 1),
        ("\u3000a", 0),
        ("a &\u00a0b", 3),
        ("\x1fa", 0),
        ("a |\t\x85 b", 4),
        ("rep(1,a,b) @ 'a", 11),
    ):
        with pytest.raises(ParseError) as err:
            parse(text, CTX2)
        assert err.value.span == SourceSpan(at, at + 1)
        assert err.value.message == f"unexpected character {text[at]!r}"
    for text, at in (("'", 0), ('"', 0), ("a & 'b", 4), ('ballot(1,[a,b]) |\n~" b @', 19)):
        with pytest.raises(ParseError) as err:
            parse(text, CTX2)
        assert err.value.span == SourceSpan(at, len(text))
        assert err.value.message == "unterminated string literal"


@pytest.mark.parametrize("seed", range(8))
def test_token_offsets_spell_each_token(seed):
    """Tokens separated by runs of all six ASCII whitespace kinds: each
    token's kind and text are as written, `text[start:end]` spells it
    (with its quotes, for a string) and the eof token sits at the end."""
    rng = random.Random(seed)
    spellings = [
        ("word", "rep"), ("word", "a1"), ("word", "1a"), ("word", "N"), ("number", "12"),
        ("number", "3"), ("string", "'x y'"), ("string", '"p\tq.json"'), ("string", "''"),
        *(("symbol", sym) for sym in ("<->", "->", "~", "&", "|", "<", ">", "[", "]", "{", "}", "(", ")", ",")),
    ]
    space = " \t\n\r\x0b\x0c"
    chosen = [rng.choice(spellings) for _ in range(60)]
    gaps = [space] + ["".join(rng.choices(space, k=rng.randint(1, 3))) for _ in chosen]
    rng.shuffle(gaps)
    text = "".join(gap + spelled for gap, (_, spelled) in zip(gaps, chosen)) + gaps[-1]
    tokens = parser._tokenize(text)
    for token, (kind, spelled) in zip(tokens, chosen):
        assert text[token.start : token.end] == spelled
        assert token.span == SourceSpan(token.start, token.end)
        assert (token.kind, token.text) == (kind, spelled.strip("'\""))
    assert len(tokens) == len(chosen) + 1
    assert (tokens[-1].kind, tokens[-1].start, tokens[-1].end) == ("eof", len(text), len(text))


def test_format_examples():
    assert format_formula(TRUE) == "true"
    assert format_formula(Not(TRUE)) == "false"
    assert format_formula(Not(Or(Out("a"), Out("b")))) == "~(a | b)"
    assert format_formula(Diamond(frozenset(), Out("a"))) == "<{}> a"
    assert format_formula(Pref(1, Rep(2, "a", "b"))) == "pref(1) rep(2,a,b)"


@pytest.mark.parametrize(
    "text",
    [
        "rep(3,a,b)",  # unknown agent
        "rep(1,z,b)",  # unknown outcome
        "(a | b",  # unbalanced parens
        "<{1,> a",  # malformed coalition
        "a @ b",  # lexical error
        "ballot(1,[a])",  # non-permutation ranking
        "ballot(1,[a,a])",
        "a b",  # trailing input
        "'lonely'",  # stray string
        "scf('x.json')",  # no such file: the test runs in an empty directory
    ],
)
def test_errors_carry_spans(text, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ParseError) as err:
        parse(text, CTX2)
    span = err.value.span
    assert 0 <= span.start <= span.end <= len(text)


def test_keyword_outcomes_rejected_at_context_load():
    for keyword in KEYWORDS:
        with pytest.raises(InvalidDomain, match="collides with a keyword"):
            Context(2, (keyword, "b"))


def test_every_property_kind_has_a_macro_a_spelling_and_an_oracle():
    """A property kind cannot be added to the encodings' table without the
    parser's macro for it, its CLI spelling and its game-theoretic oracle."""
    table = ScfTable.from_function(2, K2, lambda p: p.order(1).top)
    for kind in PropertyId.KINDS:
        prop = PropertyId(kind, 1) if kind in PropertyId.AGENT_KINDS else PropertyId(kind)
        assert PropertyId.parse(str(prop)) == prop
        assert parse(str(prop), (2, K2)) is property_formula(prop, 2, K2)
        holds, detail = property_oracle(table, prop)
        assert isinstance(holds, bool) and isinstance(detail, str)


def test_macros_match_builders():
    assert parse("ballotAll([[a,b],[b,a]])", CTX2) == ballot_profile(
        Profile((LinearOrder(("a", "b")), LinearOrder(("b", "a"))))
    )
    assert parse("better(1, a, b)", CTX2) == better(2, K2, 1, Out("a"), Out("b"))
    assert parse("trueprofile([[a,b],[b,a]])", CTX2) == trueprofile(
        Profile((LinearOrder(("a", "b")), LinearOrder(("b", "a")))), K2
    )
    assert parse("citsov", CTX2) == citsov(2, K2)
    assert parse("nodict", CTX2) == nodict(2, K2)
    assert parse("br(2)", CTX2) == best_response(2, 2, K2)
    assert parse("dom", CTX2) == dom(2, K2)
    assert parse("mon", CTX2) == mon(2, K2)
    assert parse("strproof", CTX2) == strproof(2, K2)


def test_scf_macro_loads_table(tmp_path, h_table):
    path = tmp_path / "h.json"
    save_scf(h_table, path)
    ctx = Context(2, K2)
    assert parse(f"scf('{path}')", ctx) == rho(h_table, "diamond")
    assert parse(f'scf("{path}")', ctx) == rho(h_table, "diamond")


def test_scf_macro_domain_mismatch(tmp_path, majority_table):
    path = tmp_path / "maj.json"
    save_scf(majority_table, path)
    ctx = Context(2, K2)
    with pytest.raises(ParseError):
        parse(f"scf('{path}')", ctx)


def test_compact_rho_h_equivalence(h_table):
    """The parsed compact characterization agrees with the built encoding."""
    compact = parse("b <-> (rep(1,b,a) & rep(2,b,a))", CTX2)
    implication = rho(h_table, "implication")
    for model in enumerate_models(2, K2):
        ok, _ = valid_in_model(model, Iff(compact, implication))
        assert ok


def _formula_strategy(n: int, outcomes: tuple[str, ...]):
    agents = st.integers(1, n)
    names = st.sampled_from(outcomes)
    atoms = st.one_of(
        st.just(TRUE),
        st.builds(Rep, agents, names, names),
        st.builds(Out, names),
    )
    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(Or, children, children),
            st.builds(
                lambda c, f: Diamond(c, f),
                st.frozensets(st.integers(1, n), max_size=n),
                children,
            ),
            st.builds(Pref, agents, children),
        )
    return st.recursive(atoms, extend, max_leaves=40)


@settings(max_examples=250, deadline=None)
@given(_formula_strategy(3, K3))
def test_roundtrip_random_asts(formula):
    ctx = Context(3, K3)
    assert parse(format_formula(formula), ctx) == formula


def test_roundtrip_preserves_or_shape():
    left = Or(Or(Out("a"), Out("b")), Out("a"))
    right = Or(Out("a"), Or(Out("b"), Out("a")))
    ctx = CTX2
    assert parse(format_formula(left), ctx) == left
    assert parse(format_formula(right), ctx) == right
    assert format_formula(left) == "a | b | a"
    assert format_formula(right) == "a | (b | a)"


def test_long_chains_parse_and_round_trip():
    """Prefix chains, right-associative chains and the deep nesting that
    prints them are parsed and printed without recursion."""
    negations = "~" * 10000 + "a"
    formula = parse(negations, CTX2)
    assert format_formula(formula) == negations
    node, depth = formula, 0
    while type(node) is Not:
        node, depth = node.child, depth + 1
    assert depth == 10000 and node == Out("a")

    implications = " -> ".join(["a"] * 10000)
    formula = parse(implications, CTX2)
    text = format_formula(formula)
    assert text == "~a | " + "(~a | " * 9998 + "a" + ")" * 9998
    assert parse(text, CTX2) is formula
    node, links = formula, 0
    while type(node) is Or:
        assert node.left == Not(Out("a"))
        node, links = node.right, links + 1
    assert links == 9999 and node == Out("a")
    assert parse("(" * 10000 + "a" + ")" * 10000, CTX2) == Out("a")


@pytest.mark.parametrize(
    "text, message, start, end",
    [
        ("better(1,a,b", "expected ')', found 'end of input'", 12, 12),
        ("better(1,a b)", "expected ',', found 'b'", 11, 12),
        ("better(1 a,b)", "expected ',', found 'a'", 9, 10),
        ("better(3,a,b)", "unknown agent token '3' (agents are 1..2)", 7, 8),
        ("better(1,,b)", "expected a formula, found ','", 9, 10),
        ("better(1,a,)", "expected a formula, found ')'", 11, 12),
        ("better(1,a,b,c)", "expected ')', found ','", 12, 13),
        ("better a", "expected '(', found 'a'", 7, 8),
        ("better(", "expected an agent number, found 'end of input'", 7, 7),
        ("better(1", "expected ',', found 'end of input'", 8, 8),
        ("(better(1,a,b)", "expected ')', found 'end of input'", 14, 14),
        ("better(1,a & (b,b)", "expected ')', found ','", 15, 16),
        ("better(1,(a,b))", "expected ')', found ','", 11, 12),
    ],
)
def test_better_argument_errors(text, message, start, end):
    """Malformed `better(i, f, g)` calls: the message and span of each
    error, as the recursive-descent parser of the arguments reported them."""
    with pytest.raises(ParseError) as err:
        parse(text, CTX2)
    assert (err.value.message, err.value.span) == (message, SourceSpan(start, end))


def test_keyword_properties_are_built_once(monkeypatch):
    """The parser builds the property keywords through the memoized
    `property_formula`, so a repeated keyword is not rebuilt."""
    from scflogic import encodings

    calls = []
    real = encodings._SCOPED["strproof"]

    def counting(s, agent):
        calls.append((s.n, s.outcomes))
        return real(s, agent)

    monkeypatch.setitem(encodings._SCOPED, "strproof", counting)
    encodings._property_formula.cache_clear()
    first = parse("strproof", CTX2)
    assert parse("strproof", CTX2) is first
    assert len(calls) == 1
    encodings._property_formula.cache_clear()
