import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awarekit.syntax import (
    And,
    Atom,
    DeDicto,
    DeRe,
    FALSE,
    Falsum,
    Implies,
    Know,
    MetaVar,
    Not,
    Or,
    ParseError,
    UnboundMetavariableError,
    atoms,
    awareness_tower,
    children,
    instantiate,
    is_prop_name,
    is_tautology,
    match_schema,
    metavariables,
    modal_depth,
    parse,
    render,
    rendered_length,
    subformula_closure,
)
from awarekit.proof import ProofFileError, parse_proof
from awarekit.syntax import TRUE, _LONG_TEXT, _fold_constants, _program, _rebuild, _same_trees

from conftest import formulas

P = Atom("p")
Q = Atom("q")
ATOM_EXPECTED = ("identifier", "'true'", "'false'", "'('", "'~'", "'K'", "'R'", "'D'", "'A'")
ANY_TOKEN = ATOM_EXPECTED + ("'->'", "'&'", "'|'", "')'")


class TestParse:
    def test_implication_with_modality(self):
        assert parse("K p -> p") == Implies(Know(P), P)

    def test_general_awareness_desugars(self):
        assert parse("A p") == Or(DeRe(P), DeDicto(P))

    def test_modality_needs_operand(self):
        with pytest.raises(ParseError) as exc:
            parse("K K")
        assert exc.value.offset == 4
        assert "identifier" in exc.value.expected

    def test_true_is_not_falsum(self):
        assert parse("true") == Not(Falsum())

    def test_precedence(self):
        assert parse("p & q | p") == Or(And(P, Q), P)
        assert parse("p | q & p") == Or(P, And(Q, P))
        assert parse("~p & q") == And(Not(P), Q)
        assert parse("p -> q -> p") == Implies(P, Implies(Q, P))
        assert parse("K p & q") == And(Know(P), Q)

    def test_left_associative_conjunction(self):
        assert parse("p & q & p") == And(And(P, Q), P)

    def test_parens(self):
        assert parse("K (p -> q)") == Know(Implies(P, Q))
        assert parse("((p))") == P

    def test_reserved_words_are_not_atoms(self):
        with pytest.raises(ParseError):
            parse("p & K")
        # but words merely containing a modality letter are fine
        assert parse("Kp") == Atom("Kp")

    def test_metavariables(self):
        assert parse("K PHI -> PHI") == Implies(Know(MetaVar("PHI")), MetaVar("PHI"))

    def test_offsets_are_one_based_bytes(self):
        with pytest.raises(ParseError) as exc:
            parse("")
        assert exc.value.offset == 1
        with pytest.raises(ParseError) as exc:
            parse("p q")
        assert exc.value.offset == 3

    def test_unknown_character(self):
        with pytest.raises(ParseError) as exc:
            parse("p + q")
        assert exc.value.offset == 3

    def test_parentheses_nest_at_most_one_hundred_deep(self):
        assert parse("(" * 100 + "p" + ")" * 100) == P
        f = parse("~(" * 100 + "p" + ")" * 100)
        for _ in range(100):
            f = f.child
        assert f == P
        with pytest.raises(ParseError) as exc:
            parse("(" * 300 + "p" + ")" * 300)
        assert exc.value.offset == 101 and exc.value.found == "'('"

    def test_long_implication_chain_parses(self):
        # right associative, as with short chains
        f = parse(" -> ".join(["p"] * 2000))
        for _ in range(1999):
            assert type(f) is Implies and f.left == P
            f = f.right
        assert f == P

    def test_atom_constructor_rejects_reserved(self):
        for bad in ("K", "true", "false", "PHI", "", "1x"):
            with pytest.raises(ValueError):
                Atom(bad)

    @pytest.mark.parametrize(
        "name, message",
        [
            ("K", "'K' is a reserved word, not a proposition name"),
            ("true", "'true' is a reserved word, not a proposition name"),
            ("PHI", "'PHI' is a metavariable name; use MetaVar"),
            ("PSI2", "'PSI2' is a metavariable name; use MetaVar"),
            ("", "invalid proposition name ''"),
            ("1x", "invalid proposition name '1x'"),
            ("PHI\n", "invalid proposition name 'PHI\\n'"),
        ],
    )
    def test_prop_name_rule(self, name, message):
        assert not is_prop_name(name)
        with pytest.raises(ValueError) as exc:
            Atom(name)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["p", "Kp", "PHIL", "Phi", "x_1", "P", "PI_2"])
    def test_prop_names_accepted(self, name):
        assert is_prop_name(name)
        assert Atom(name).name == name

    def test_metavar_name_is_whole_name(self):
        with pytest.raises(ValueError):
            MetaVar("PHI\n")

    # the error contract: 1-based byte offset, expected tokens, found text
    @pytest.mark.parametrize(
        "text, offset, expected, found",
        [
            ("p p $", 5, ANY_TOKEN, "'$'"),
            ("p -", 3, ANY_TOKEN, "'-'"),
            ("K", 2, ATOM_EXPECTED, "end of input"),
            ("(p", 3, ("')'", "'->'", "'&'", "'|'"), "end of input"),
            ("p)", 2, ("end of input", "'->'", "'&'", "'|'"), "')'"),
            ("p & & q", 5, ATOM_EXPECTED, "'&'"),
            ("\u00e4 & (p", 1, ANY_TOKEN, "'\u00e4'"),
        ],
    )
    def test_error_contract(self, text, offset, expected, found):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.offset, exc.value.expected, exc.value.found) == (offset, expected, found)
        assert str(exc.value) == (
            f"syntax error at offset {offset}: expected {' or '.join(expected)}, found {found}"
        )

    def test_unknown_character_wins_over_an_earlier_syntax_error(self):
        # the whole text is scanned before parsing starts
        with pytest.raises(ParseError) as exc:
            parse("p & & q \u00e4")
        assert (exc.value.offset, exc.value.found) == (9, "'\u00e4'")

    def test_trailing_space_costs_linear_time(self):
        start = time.perf_counter()
        assert parse("p" + " " * 20_000) == P
        with pytest.raises(ParseError) as exc:
            parse("p ->" + " " * 20_000)
        assert exc.value.offset == 20_005 and exc.value.found == "end of input"
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=300, deadline=None)
    @given(formulas(max_depth=3), st.integers(0, 3))
    def test_round_trip_shares_equal_subtrees(self, f, levels):
        f = awareness_tower(Implies(f, Or(f, MetaVar("PHI"))), levels)
        g = parse(render(f))
        assert g == f
        # one node per distinct subtree: the program has one entry per id
        entries, entry_of, _ = _program([g])
        assert len(entries) == len(entry_of)

    def test_a_shared_table_shares_nodes_between_results(self):
        table = {}
        f = parse("K (p -> q) & true", _table=table)
        g = parse("(p -> q) | ~false", _table=table)
        assert f.left.child is g.left
        assert f.right is g.right  # true is ~false
        assert parse("K (p -> q) & true", _table=table) is f
        h = parse("K (p -> q) & true")
        assert h == f and h is not f and h.left.child is not g.left

    # the group memo: a text of at least _LONG_TEXT characters enters each
    # parenthesized group that parsed in the node table, and an equal group
    # later takes its node where the parentheses stay within the bound

    DEEP_GROUP = "(" * 60 + "p" + ")" * 60
    PAST_THE_BOUND = (101, ("at most 100 nested parentheses",), "'('")

    def test_a_group_repeated_past_the_bound_raises_as_before(self):
        wrapped = "(" * 50 + self.DEEP_GROUP + ")" * 50
        assert len(self.DEEP_GROUP) >= _LONG_TEXT
        table = {}
        assert parse(self.DEEP_GROUP, _table=table) == P
        for text, offset in [
            (wrapped, 101),
            # the first copy is entered at level 0, the second sits at 50
            (self.DEEP_GROUP + " & " + wrapped, 124 + 101),
        ]:
            for kwargs in ({}, {"_table": table}):
                with pytest.raises(ParseError) as exc:
                    parse(text, **kwargs)
                assert (exc.value.offset, exc.value.expected, exc.value.found) == (
                    offset,
                    *self.PAST_THE_BOUND[1:],
                )
        # within the bound the entry serves
        assert parse("(" * 40 + self.DEEP_GROUP + ")" * 40, _table=table) == P

    def test_a_proof_file_repeating_a_group_past_the_bound_raises_as_before(self):
        wrapped = "(" * 50 + self.DEEP_GROUP + ")" * 50
        text = f"theorem t\n1: {self.DEEP_GROUP} -> {self.DEEP_GROUP} by taut\n2: {wrapped} by taut\n"
        with pytest.raises(ProofFileError) as exc:
            parse_proof(text)
        offset, expected, found = self.PAST_THE_BOUND
        assert exc.value.lineno == 3
        assert exc.value.reason == (
            f"bad formula: syntax error at offset {offset}: expected {expected[0]}, found {found}"
        )

    def test_a_group_that_failed_is_never_reused(self):
        bad = "(p -> q q)"
        text = f"{bad} & (p -> q) & (p -> q) & (p -> q) & (p -> q) & (p -> q)"
        assert len(text) >= _LONG_TEXT
        table = {}
        for _ in range(2):
            with pytest.raises(ParseError) as exc:
                parse(text, _table=table)
            assert (exc.value.offset, exc.value.found) == (9, "'q'")
        # the same group at another offset fails there too
        with pytest.raises(ParseError) as exc:
            parse("(p -> q) & " * 5 + bad, _table=table)
        assert (exc.value.offset, exc.value.found) == (64, "'q'")
        # a group that parsed inside the one that failed serves later texts
        with pytest.raises(ParseError):
            parse("((p -> q) & (q -> p) & (p & q | ~p) r) | (p -> q) & (q -> p) & (p -> q)", _table=table)
        assert parse(
            "(p -> q) & (q -> p) & (p & q | ~p) -> ((p -> q) & (q -> p) & (p & q | ~p))", _table=table
        ) == parse("(p -> q) & (q -> p) & (p & q | ~p) -> ((p -> q) & (q -> p) & (p & q | ~p))")

    def test_groups_that_differ_only_in_their_last_token(self):
        text = "(p -> q) & (p -> r) | (K p -> q) & (K p -> r) | ((p -> q)) & ((p -> r))"
        assert len(text) >= _LONG_TEXT
        a, b = Implies(P, Q), Implies(P, Atom("r"))
        ka, kb = Implies(Know(P), Q), Implies(Know(P), Atom("r"))
        assert parse(text) == Or(Or(And(a, b), And(ka, kb)), And(a, b))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(formulas(max_depth=3), min_size=1, max_size=3),
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 2), st.integers(0, 3), st.sampled_from([" -> ", " & ", " | "])),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_a_shared_table_gives_the_trees_of_a_fresh_one(self, groups, layouts):
        # each text repeats the groups, each in 1 to 4 parentheses, and
        # doubles until the memo applies to it
        texts = []
        for layout in layouts:
            pieces = []
            for which, parens, link in layout:
                pieces += [link, "(" * (parens + 1), render(groups[which % len(groups)]), ")" * (parens + 1)]
            text = "".join(pieces[1:])
            while len(text) < _LONG_TEXT:
                text = f"({text}) & {text}"
            texts.append(text)
        table = {}
        for text in texts + texts:
            assert parse(text, _table=table) == parse(text)


class TestRender:
    def test_examples(self):
        assert render(Implies(Know(P), P)) == "K p -> p"
        assert render(Not(Falsum())) == "~false"
        assert render(Or(DeRe(P), DeDicto(P))) == "R p | D p"

    def test_minimal_parens(self):
        assert render(Implies(Implies(P, Q), P)) == "(p -> q) -> p"
        assert render(Or(P, Or(Q, P))) == "p | (q | p)"
        assert render(Know(And(P, Q))) == "K (p & q)"
        assert render(Not(Know(P))) == "~K p"

    @settings(max_examples=300, deadline=None)
    @given(formulas())
    def test_round_trip(self, f):
        assert parse(render(f)) == f

    @pytest.mark.parametrize(
        "link,names", [("~", {"q"}), ("p -> ", {"p", "q"})], ids=["not", "implies"]
    )
    def test_deep_boolean_chains(self, link, names):
        text = link * 10000 + "q"
        f = parse(text)
        assert render(f) == text
        assert atoms(f) == names

    @pytest.mark.parametrize("link", ["K ", "R ", "D "], ids=["K", "R", "D"])
    def test_deep_modal_chains(self, link):
        text = link * 10000 + "(p -> PHI)"
        f, copy = parse(text), parse(text)
        assert render(f) == text
        assert modal_depth(f) == 10000
        assert atoms(f) == {"p"}
        assert metavariables(f) == {"PHI"}
        # the top unit is the whole chain, so the engine never descends
        assert not is_tautology(f)
        assert is_tautology(Implies(f, copy))

    @settings(max_examples=300, deadline=None)
    @given(formulas(max_depth=3), st.integers(0, 4))
    def test_rendered_length(self, f, levels):
        f = awareness_tower(f, levels)
        assert rendered_length(f) == len(render(f))


def shape(f):
    """Structural reference for node equality: nested tuples of each node's
    class name, its name if a leaf, and its children, built by recursion."""
    return (type(f).__name__, getattr(f, "name", None), *map(shape, children(f)))


class TestNodeEquality:
    @settings(max_examples=300, deadline=None)
    @given(
        formulas(props=("p", "q"), max_depth=3),
        formulas(props=("p", "q"), max_depth=3),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_agrees_with_structural_reference(self, f, g, m, n):
        # towers share each level's subtree between R and D
        f, g = awareness_tower(f, m), awareness_tower(g, n)
        twin = parse(render(f))
        assert (f == g) == (shape(f) == shape(g)) == (g == f)
        assert (f != g) == (shape(f) != shape(g))
        assert twin == f and hash(twin) == hash(f)
        if f == g:
            assert hash(f) == hash(g)
        if type(f) is type(g):
            assert _same_trees(f, g) == (shape(f) == shape(g))
        for node in subformula_closure(f):
            assert (node == f) == (shape(node) == shape(f))

    def test_shared_subtree_against_distinct_ones(self):
        # one node at two places on one side, two nodes on the other: the
        # first equal to it, the second not
        kp = parse("K p")
        f, g = And(kp, kp), And(parse("K p"), parse("K q"))
        assert f != g and g != f
        assert And(kp, kp) == And(parse("K p"), parse("K p"))

    def test_other_types_are_not_implemented(self):
        assert P.__eq__("p") is NotImplemented and P != "p"
        assert Not(P).__eq__(Know(P)) is NotImplemented and Not(P) != Know(P)
        assert Not(P) != ("Not", P)

    def test_hash_is_cached(self):
        f = parse("K (p -> q) & D ~q")
        assert hash(f) == hash(f) == hash(parse("K (p -> q) & D ~q"))
        assert f._hash == hash(f)

    @pytest.mark.parametrize("link", ["~", "K ", "R ", "D ", "p -> "], ids=["not", "K", "R", "D", "implies"])
    def test_deep_chains(self, link):
        f, twin, other = parse(link * 10000 + "q"), parse(link * 10000 + "q"), parse(link * 10000 + "p")
        assert f == twin and not f != twin and f != other
        assert hash(f) == hash(twin)
        closure = subformula_closure(f)
        assert len(closure) == 10001 + (link == "p -> ")
        assert f in closure and twin in closure and other not in closure

    def test_shared_subtrees_take_linear_time(self):
        # 60 levels are 2**60 paths but 181 distinct nodes
        start = time.perf_counter()
        f, twin, other = (awareness_tower(Atom(name), 60) for name in "ppq")
        assert f == twin and f != other
        assert hash(f) == hash(twin) != hash(other)
        assert len(subformula_closure(f)) == 181
        assert time.perf_counter() - start < 1.0


class TestTower:
    def test_zero_is_identity(self):
        assert awareness_tower(P, 0) == P

    def test_one_level(self):
        assert awareness_tower(P, 1) == Or(DeRe(P), DeDicto(P))

    def test_two_levels(self):
        inner = Or(DeRe(P), DeDicto(P))
        assert awareness_tower(P, 2) == Or(DeRe(inner), DeDicto(inner))

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_depth=3))
    def test_tower_modal_depth(self, f):
        for n in range(4):
            assert modal_depth(awareness_tower(f, n)) == n + modal_depth(f)

    @pytest.mark.parametrize(
        "link,depth",
        [("~", 0), ("K ", 10000), ("R ", 10000), ("D ", 10000), ("K p -> ", 1)],
        ids=["not", "K", "R", "D", "implies"],
    )
    def test_modal_depth_of_deep_chains(self, link, depth):
        assert modal_depth(parse(link * 10000 + "p")) == depth


class TestSchemas:
    def test_match_truth_instance(self):
        schema = parse("K PHI -> PHI")
        assert match_schema(schema, parse("K (D p) -> D p")) == {"PHI": DeDicto(P)}

    def test_repeated_metavariable_must_agree(self):
        schema = parse("K PHI -> PHI")
        assert match_schema(schema, parse("K p -> q")) is None

    def test_two_metavariables(self):
        schema = parse("K (PHI -> PSI) -> (K PHI -> K PSI)")
        got = match_schema(schema, parse("K (p -> q) -> (K p -> K q)"))
        assert got == {"PHI": P, "PSI": Q}

    def test_instantiate(self):
        assert instantiate(parse("K PHI -> PHI"), {"PHI": P}) == parse("K p -> p")

    def test_instantiate_closed_schema(self):
        assert instantiate(parse("~R false"), {}) == parse("~R false")

    def test_instantiate_unbound(self):
        with pytest.raises(UnboundMetavariableError) as exc:
            instantiate(parse("D PHI -> K D PHI"), {"PSI": P})
        assert exc.value.name == "PHI"
        # the leftmost unbound metavariable is the one named
        with pytest.raises(UnboundMetavariableError) as exc:
            instantiate(parse("PSI -> PHI"), {})
        assert exc.value.name == "PSI"

    def test_instantiate_refuses_a_non_formula_node(self):
        with pytest.raises(TypeError, match="not a formula node"):
            instantiate(Implies(MetaVar("PHI"), "p"), {"PHI": P})

    @pytest.mark.parametrize("link", ["~", "K ", "R ", "D ", "PHI -> "])
    def test_instantiate_deep_chains(self, link):
        text = link * 10000 + "PHI"
        got = instantiate(parse(text), {"PHI": parse("p & K q")})
        assert got == parse(text.replace("PHI", "(p & K q)"))

    @settings(max_examples=200, deadline=None)
    @given(formulas())
    def test_matching_soundness(self, f):
        for schema_text in ("K PHI -> PHI", "PHI -> R PHI", "D (R PHI | D PHI) -> D PHI"):
            schema = parse(schema_text)
            target = instantiate(schema, {"PHI": f})
            got = match_schema(schema, target)
            assert got is not None
            assert instantiate(schema, got) == target

    def test_concrete_atoms_must_agree(self):
        assert match_schema(parse("p"), parse("q")) is None
        assert match_schema(parse("K p -> PHI"), parse("K q -> r")) is None
        assert match_schema(parse("K p -> PHI"), parse("K p -> r")) == {"PHI": Atom("r")}

    @pytest.mark.parametrize(
        "link", ["~", "K ", "R ", "D ", "K p -> "], ids=["not", "K", "R", "D", "implies"]
    )
    def test_deep_chains(self, link):
        schema = parse(link * 10000 + "PHI")
        assert match_schema(schema, parse(link * 10000 + "q")) == {"PHI": Q}
        assert match_schema(parse(link * 10000 + "p"), parse(link * 10000 + "q")) is None
        assert match_schema(schema, parse(link * 9999 + "q")) is None


def _units(f):
    out = {}

    def scan(n):
        if isinstance(n, (Know, DeRe, DeDicto, Atom, MetaVar)):
            out.setdefault(n, len(out))
            return
        if isinstance(n, Not):
            scan(n.child)
        elif isinstance(n, (Implies, And, Or)):
            scan(n.left)
            scan(n.right)

    scan(f)
    return out


def _truth_table_taut(f):
    """Independent oracle: explicit environment dictionaries, no bit tricks."""
    units = list(_units(f))
    import itertools

    def ev(n, env):
        if n in env:
            return env[n]
        if isinstance(n, Falsum):
            return False
        if isinstance(n, Not):
            return not ev(n.child, env)
        if isinstance(n, Implies):
            return (not ev(n.left, env)) or ev(n.right, env)
        if isinstance(n, And):
            return ev(n.left, env) and ev(n.right, env)
        return ev(n.left, env) or ev(n.right, env)

    for values in itertools.product([False, True], repeat=len(units)):
        if not ev(f, dict(zip(units, values))):
            return False
    return True


class TestTautology:
    def test_examples(self):
        assert is_tautology(parse("p -> p"))
        assert not is_tautology(parse("K p -> p"))
        assert is_tautology(parse("D(R p | D p) -> D(R p | D p)"))

    def test_modal_subformulas_are_opaque(self):
        assert not is_tautology(parse("K (p -> p)"))
        assert is_tautology(parse("K (p -> p) | ~K (p -> p)"))

    def test_variable_limit(self):
        big = parse(" | ".join(f"x{i}" for i in range(21)))
        with pytest.raises(ValueError):
            is_tautology(big)

    def test_exactly_twenty_variables(self):
        # more variables than one pass of 2**_CHUNK_BITS valuations holds,
        # so the check runs in several passes
        from awarekit.syntax import _CHUNK_BITS

        conj = " & ".join(["K p", "R p", "D p"] + [f"x{i}" for i in range(17)])
        assert 20 > _CHUNK_BITS
        assert is_tautology(parse(f"{conj} -> x16"))
        # false only when every variable is true: the last valuation of all
        assert not is_tautology(parse(f"~({conj})"))

    @pytest.mark.parametrize("depth", [600, 900, 10_000])
    def test_deeply_nested_negation(self, depth):
        assert not is_tautology(parse("~" * depth + "p"))
        assert is_tautology(parse("~" * depth + "p | ~p"))

    def test_wide_deep_check_drops_each_integer_after_its_last_use(self):
        # each entry's integer is 2**16 bits (8 KB) at 20 variables, so
        # holding every level's for a whole pass would take about 18 MB
        import tracemalloc

        conj = " & ".join(f"p{i}" for i in range(20))
        f = parse("~" * 2000 + f"({conj}) | " + "~" * 2001 + f"({conj})")
        tracemalloc.start()
        try:
            assert is_tautology(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_deep_modal_chain(self):
        # each chain is one abstraction unit; equal chains share it
        chain = "K " * 600 + "p"
        assert not is_tautology(parse(chain))
        assert is_tautology(parse(f"{chain} -> {chain}"))
        assert not is_tautology(parse(f"{chain} -> K {chain}"))

    def test_concurrent_checks_of_several_widths_agree(self):
        # checks of one and of several passes run side by side and share
        # only the cached pattern columns of each width
        import sys
        import threading

        cases = []
        for n in (1, 3, 6, 17):
            conj = " & ".join(f"x{i}" for i in range(n))
            cases += [(parse(f"{conj} -> x0"), True), (parse(f"~({conj})"), False)]
        wrong: list = []

        def work(k):
            try:
                for i in range(200):
                    f, want = cases[(i + k) % len(cases)]
                    if is_tautology(f) != want:
                        wrong.append((k, i))
            except Exception as exc:  # reported below, with the thread's place
                wrong.append((k, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @settings(max_examples=300, deadline=None)
    @given(formulas(max_depth=4))
    def test_agrees_with_truth_table_oracle(self, f):
        assert is_tautology(f) == _truth_table_taut(f)

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_depth=3))
    def test_excluded_middle_always_holds(self, f):
        assert is_tautology(Or(f, Not(f)))


class TestProgram:
    @settings(max_examples=300, deadline=None)
    @given(
        formulas(props=("p",), max_depth=2),
        formulas(props=("p",), max_depth=2),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    def test_same_entry_iff_equal(self, f, g, m, n):
        # awareness towers share each level's subtree between R and D
        f, g = awareness_tower(f, m), awareness_tower(g, n)
        copy = parse(render(f))
        entries, entry_of, nodes = _program([f, g, copy])
        assert (entry_of[id(f)] == entry_of[id(g)]) == (f == g)
        assert entry_of[id(copy)] == entry_of[id(f)]
        assert len(set(nodes)) == len(nodes) == len(entries)
        for i, (kind, *args) in enumerate(entries):
            assert type(nodes[i]) is kind
            assert entry_of[id(nodes[i])] == i
            if kind not in (Atom, Falsum):
                assert all(c < i for c in args)

    def test_tower_shares_each_level(self):
        entries, _, _ = _program([awareness_tower(P, 40)])
        assert len(entries) == 1 + 3 * 40


class TestFoldConstants:
    """_fold_constants gives FALSE, TRUE or a formula with no false, equal
    to f at every present point of every model."""

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_depth=4), st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3))
    def test_equals_the_formula_at_every_present_point(self, f, seed, worlds, agents):
        # random_formula puts false at about half of its leaves
        from awarekit.checker import satisfies_naive
        from awarekit.model import Bounds, random_model

        g = _fold_constants(f)
        m = random_model(seed, Bounds(worlds, agents, ("p", "q")))
        for pt in m.points():
            assert satisfies_naive(m, pt, g) == satisfies_naive(m, pt, f), (render(f), render(g), pt)

    @settings(max_examples=200, deadline=None)
    @given(formulas(max_depth=4))
    def test_a_constant_or_free_of_false_and_folded_once(self, f):
        g = _fold_constants(f)
        assert g is FALSE or g is TRUE or all(e[0] is not Falsum for e in _program([g])[0])
        assert _fold_constants(g) is g

    @pytest.mark.parametrize(
        "text, want",
        [
            ("K (false & q | false) -> K R p", "true"),
            ("true", "true"),
            ("~~false", "false"),
            ("p -> false", "~p"),
            ("false -> p", "true"),
            ("p -> true", "true"),
            ("true -> p", "p"),
            ("p & true", "p"),
            ("false & p", "false"),
            ("p | false", "p"),
            ("true | p", "true"),
            ("K false | R true -> D false", "false"),
            ("K true & R true & D true", "true"),
            ("D (p | ~false) & (q -> false)", "~q"),
        ],
    )
    def test_rules(self, text, want):
        assert _fold_constants(parse(text)) == parse(want)

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_depth=4))
    def test_no_false_or_a_metavariable_gives_the_same_object(self, f):
        # f with each false read as p; a schema keeps its metavariables for
        # the engine to raise on
        entries, _, nodes = _program([f])
        free = _rebuild(entries, [P if e[0] is Falsum else n for e, n in zip(entries, nodes)])
        schema = And(f, MetaVar("PHI"))
        assert _fold_constants(free) is free
        assert _fold_constants(schema) is schema

    def test_keeps_the_nodes_it_does_not_change(self):
        kept = parse("K (p -> R q)")
        f = Or(And(kept, TRUE), Falsum())
        assert _fold_constants(f) is kept

    @pytest.mark.parametrize("link", [Not, Know, DeRe, DeDicto])
    def test_deep_chains_fold_without_recursion(self, link):
        # far past the recursion limit; an even number of ~ flips nothing
        for leaf in (FALSE, TRUE):
            f = leaf
            for _ in range(10_000):
                f = link(f)
            assert _fold_constants(f) is leaf
            assert _fold_constants(Not(f)) is (FALSE if leaf is TRUE else TRUE)


class TestClosure:
    def test_atom(self):
        assert subformula_closure(P) == {P}

    def test_implication(self):
        f = parse("K p -> p")
        assert subformula_closure(f) == {f, Know(P), P}

    def test_not_false(self):
        f = parse("~false")
        assert subformula_closure(f) == {f, FALSE}

    def test_atoms(self):
        assert atoms(parse("K p -> q & p")) == {"p", "q"}

    def test_atoms_and_metavariables_of_deep_formulas(self):
        deep = parse("~" * 900 + "(p -> PHI)")
        assert atoms(deep) == {"p"}
        assert metavariables(deep) == {"PHI"}
