"""The front-end memo (``repro.prolog.program``): a program parsed,
normalized and hashed through warm memo entries equals the same calls
made after the memo is cleared, whatever the clause texts, their
layout, their order and the texts parsed before them."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import AnalysisConfig, analyze
from repro.assertions import check_analysis
from repro.benchprogs import benchmark
from repro.prolog.normalize import normalize_program
from repro.prolog.operators import default_operators
from repro.prolog.program import FRONT_END_MEMO, parse_program
from repro.service.serialize import program_hash
from repro.typegraph import opcache

#: Clause texts whose end dot the split must find past quoted dots,
#: comments, character codes and symbol runs.
CLAUSES = (
    "p(a)",
    "p(X) :- q(X, _), r(_)",
    "q(X, Y) :- X = 'a. b', Y = \"c % d\"",
    "q('/* x', \"it''s. \")",
    "r(X) :- X = 0'., s(0'')",
    "r(X) :- X =.. [f, _]",
    "r(0''', X) :- X = 'q. '",
    "s(X) :- t(X, +.\n)",
    "s(X) :- X = '.' , t(X, '%')",
    "t(A, B) :- ( A = 1 -> B = 2 ; B = 3 )",
    "t(_, _)",
    "u :- t(1, 2) /* a. comment */ , p(a)",
    "u :- X = \"str. \\\" quote\", q(X, _)",
    "v([H|T]) :- v(T), p(H)",
    "v(X) :- X = 0'a, Y = 0' , q(Y, 0'\\n)",
    ":- op(700, xfx, ===>)",
    "w(X) :- X ===> y",
    ":- op(200, xfy, ===>)",
    "w(X, _) :- a ===> b ===> X",
    ":- dynamic(p/1)",
    # a _G of its own: read again, never renamed, where its number moves
    "y(_G1, _) :- z('_G2', _)",
    # 128 bodies: normalization extracts an auxiliary predicate named
    # after the clause's index in its predicate
    "x(Y) :- " + ", ".join(["(p(Y) ; q(Y, _))"] * 7),
)

#: Texts that do not parse, so the whole-text errors must come back.
BROKEN = ("p(", "q :- 'open", "r(X) :- X = 0'", "s /* open",
          ":- op(1300, xfx, bad)", "t(X) :- ²", "1 :- a")

LAYOUT = ("\n", " ", "\r\n", "\n\n\n", "  % a comment. with dots\n",
          "/* block. */\n", "\n% trailing %\n")


def texts():
    clause = st.sampled_from(CLAUSES)
    return st.lists(st.tuples(clause, st.sampled_from(LAYOUT)),
                    min_size=1, max_size=10)


def render(pieces) -> str:
    return "".join(text + "." + layout for text, layout in pieces)


def edits(pieces):
    """Texts that share clauses with ``pieces``: a clause prepended,
    one inserted, one deleted."""
    yield [("zz_first(_)", "\n")] + pieces
    middle = len(pieces) // 2
    yield pieces[:middle] + [("zz_mid(a, _)", "\r\n")] + pieces[middle:]
    yield pieces[1:] or pieces


def signature(text: str, whole: bool = False):
    """What the front end gives for ``text``: clause reprs and lines,
    directives and their lines, the normalized clauses with the lines
    of their sources, and the program hash -- or the parse error.
    ``whole``: parse the text as one token stream, past the memo."""
    try:
        program = parse_program(text, default_operators() if whole
                                else None)
        norm = normalize_program(program)
    except (SyntaxError, ValueError) as error:
        return (type(error).__name__, str(error))
    return ([(repr(c), c.line) for c in program.all_clauses()],
            [repr(d) for d in program.directives], program.directive_lines,
            [(pred, repr(c), c.source.line, c.var_names, c.nvars)
             for pred in norm.order
             for c in norm.procedures[pred].clauses],
            norm.disjunction_fallbacks, program_hash(program))


def cleared_signature(text: str):
    """:func:`signature` with an empty memo, which must also be the
    whole-text parse's."""
    FRONT_END_MEMO.clear()
    cleared = signature(text)
    assert cleared == signature(text, whole=True)
    return cleared


@given(texts(), st.lists(st.sampled_from(BROKEN), max_size=1))
@settings(max_examples=150, deadline=None)
def test_memoized_front_end_equals_a_cleared_one(pieces, broken):
    if broken:
        pieces = pieces + [(broken[0], "\n")]
    warm = []
    for variant in [pieces] + list(edits(pieces)) + [pieces]:
        text = render(variant)
        # twice: a clause text enters the memo when it is read again
        warm.append((text, signature(text), signature(text)))
    for text, first, second in warm:
        want = cleared_signature(text)
        assert first == want
        assert second == want


def test_a_text_read_twice_is_served_from_the_memo():
    opcache.clear(reset_counters=True)
    text = render([(clause, "\n") for clause in CLAUSES])
    want = signature(text)
    assert FRONT_END_MEMO.hits == 0 and len(FRONT_END_MEMO) == 0
    assert signature(text) == want  # the second reading stores them
    hits = FRONT_END_MEMO.hits
    assert signature(text) == want
    assert FRONT_END_MEMO.hits - hits == len(CLAUSES)
    assert opcache.stats()["clause_text"]["size"] == len(CLAUSES)
    opcache.clear()
    assert len(FRONT_END_MEMO) == 0


def test_front_end_traffic_is_not_the_fixpoints():
    """The engine attributes ``opcache.snapshot`` deltas to the
    fixpoint, so parsing does not move it."""
    text = render([(clause, "\n") for clause in CLAUSES[:6]])
    parse_program(text)
    before = opcache.snapshot()
    parse_program(text)
    parse_program(text)
    assert opcache.snapshot() == before


def test_an_explicit_operator_table_bypasses_the_memo():
    text = "p :- a ===> b.\n"
    ops = default_operators()
    ops.add("===>", 700, "xfx")
    lookups = FRONT_END_MEMO.hits + FRONT_END_MEMO.misses
    program = parse_program(text, ops)
    assert FRONT_END_MEMO.hits + FRONT_END_MEMO.misses == lookups
    assert repr(program.all_clauses()[0]) == "p :- ===>(a,b)."


def test_one_clause_text_under_two_operator_tables():
    clause = "p :- q ===> r, s.\n"
    low = ":- op(700, xfx, ===>).\n" + clause
    high = ":- op(1050, xfy, ===>).\n" + clause
    warm = []
    for _ in range(3):
        for text, goals in ((low, ["===>(q,r)", "s"]),
                            (high, ["===>(q,,(r,s))"])):
            program = parse_program(text)
            assert [repr(g) for g in program.all_clauses()[0].body] == goals
            warm.append((text, signature(text)))
    assert FRONT_END_MEMO.hits
    for text, signed in warm:
        assert signed == cleared_signature(text)


def test_an_extracted_disjunction_is_named_for_its_clause_index():
    big = CLAUSES[-1] + ".\n"
    texts = (big, "x(a).\n" + big) * 2
    warm = [(text, signature(text)) for text in texts]
    for text, signed in warm:
        assert signed == cleared_signature(text)
        assert signed[4] == 1
    assert "$or_x_1_0_0" in str(warm[0][1][3])
    assert "$or_x_1_1_0" in str(warm[1][1][3])


def test_errors_keep_their_line_and_column():
    good = render([(clause, "\n") for clause in CLAUSES[:4]])
    for broken in BROKEN:
        text = good + "\n" + broken + ".\n"
        parse_program(good)
        parse_program(good)
        with pytest.raises(SyntaxError) as warm:
            parse_program(text)
        FRONT_END_MEMO.clear()
        with pytest.raises(SyntaxError) as cold:
            parse_program(text)
        with pytest.raises(SyntaxError) as whole:
            parse_program(text, default_operators())
        assert str(warm.value) == str(cold.value) == str(whole.value)
    # an error found in the clause itself is reported at its first token
    assert "at line %d, column 1" % (good.count("\n") + 2) in \
        str(warm.value)


def _checked(source: str):
    bp = benchmark("CHK")
    analysis = analyze(source, bp.query, input_types=bp.input_types,
                       config=AnalysisConfig(keep_deps=True))
    return check_analysis(analysis)


def test_prepended_lines_move_every_blame_line_by_as_many():
    source = benchmark("CHK").source
    moved = "% three\n% new\n% lines\n" + source
    for text in (source, moved, source, moved):
        _checked(text)  # warm the memo with both versions
    report, slices = _checked(source)
    moved_report, moved_slices = _checked(moved)
    assert [v.status for v in moved_report.verdicts] == \
        [v.status for v in report.verdicts]
    assert slices
    steps = [step for piece in slices for step in piece.steps]
    moved_steps = [step for piece in moved_slices for step in piece.steps]
    assert len(steps) == len(moved_steps)
    assert all(step.line > 0 for step in steps)
    for step, moved_step in zip(steps, moved_steps):
        assert moved_step.line == step.line + 3
        assert moved_step.replace(line=step.line) == step


TABLE1 = ("KA", "QU", "PR", "PE", "CS", "DS", "PG", "RE", "BR", "PL")


def test_an_anonymous_variable_shift_renames_kept_terms():
    """Prepending a clause that reads ``_`` moves the ``_G`` number of
    every later one; the kept terms are renamed, not parsed again."""
    sources = [benchmark(name).source for name in TABLE1]
    for source in sources * 2:
        parse_program(source)
    clauses = sum(len(program.all_clauses()) + len(program.directives)
                  for program in map(parse_program, sources))
    shifted = ["zz(_).\n" + source for source in sources]
    hits, misses = FRONT_END_MEMO.hits, FRONT_END_MEMO.misses
    warm = [(text, signature(text)) for text in shifted]
    # zz(_) misses until it is read twice; nothing else misses
    assert FRONT_END_MEMO.misses - misses == 2
    assert FRONT_END_MEMO.hits - hits == clauses + len(sources) - 2
    for text, signed in warm:
        assert signed == cleared_signature(text)


def test_a_clause_with_a_g_of_its_own_is_read_again():
    clause = "y(_G1, _) :- z('_G2', _).\n"
    for _ in range(2):
        parse_program(clause)
    misses = FRONT_END_MEMO.misses
    shifted = "p(_).\n" + clause
    signed = signature(shifted)
    assert FRONT_END_MEMO.misses - misses == 2
    assert "y(_G1,_G2) :- z('_G2',_G3)." in str(signed[0])
    assert signed == cleared_signature(shifted)
