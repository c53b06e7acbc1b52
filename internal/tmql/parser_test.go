package tmql

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`SELECT x.a FROM X x WHERE x.b <= 10 AND x.c <> 'hi' -- comment
	`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokKind{
		TokKeyword, TokIdent, TokDot, TokIdent, TokKeyword, TokIdent, TokIdent,
		TokKeyword, TokIdent, TokDot, TokIdent, TokLe, TokInt, TokKeyword,
		TokIdent, TokDot, TokIdent, TokNe, TokString, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v (%s), want %v", i, kinds[i], toks[i].Text, want[i])
		}
	}
}

func TestLexCaseInsensitiveKeywords(t *testing.T) {
	toks, err := Lex("select From wHeRe exists")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks[:4] {
		if tok.Kind != TokKeyword {
			t.Errorf("%s should be keyword", tok.Text)
		}
	}
	if toks[0].Text != "SELECT" {
		t.Errorf("keyword not canonicalized: %s", toks[0].Text)
	}
}

func TestLexStringsAndEscapes(t *testing.T) {
	toks, err := Lex(`"a\"b" 'c\n'`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != `a"b` || toks[1].Text != "c\n" {
		t.Errorf("string lexing: %q %q", toks[0].Text, toks[1].Text)
	}
	if _, err := Lex(`"unterminated`); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex(`"bad \q"`); err == nil {
		t.Error("bad escape should fail")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("12 3.5 1e3 2.5e-2")
	if err != nil {
		t.Fatal(err)
	}
	wantKind := []TokKind{TokInt, TokFloat, TokFloat, TokFloat}
	for i, k := range wantKind {
		if toks[i].Kind != k {
			t.Errorf("number %d: kind %v, want %v", i, toks[i].Kind, k)
		}
	}
	if _, err := Lex("1e"); err == nil {
		t.Error("malformed exponent should fail")
	}
}

func TestLexBadChar(t *testing.T) {
	if _, err := Lex("a @ b"); err == nil {
		t.Error("@ should fail to lex")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT x FROM",
		"SELECT x FROM X",     // missing iteration variable
		"x IN",                // missing rhs
		"(a = 1",              // unclosed tuple
		"{1, 2",               // unclosed set
		"EXISTS x IN s x = 1", // missing parens around body
		"COUNT 3",             // missing parens
		"x WITH y",            // missing = in WITH
		"1 2",                 // trailing input
		"x..y",                // bad field selection
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := map[string]string{
		"1 + 2 * 3":             "1 + 2 * 3",
		"(1 + 2) * 3":           "(1 + 2) * 3",
		"NOT a AND b":           "NOT a AND b", // NOT binds tighter
		"a OR b AND c":          "a OR b AND c",
		"a = 1 AND b = 2":       "a = 1 AND b = 2",
		"a UNION b INTERSECT c": "a UNION b INTERSECT c",
		"x.a IN s UNION t":      "x.a IN s UNION t", // set ops bind tighter than IN
		"- x.a + 1":             "-x.a + 1",
	}
	for src, want := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := Format(e); got != want {
			t.Errorf("Format(Parse(%q)) = %q, want %q", src, got, want)
		}
	}
}

func TestParsePaperQueries(t *testing.T) {
	queries := []string{
		// Q1 (§3.2)
		`SELECT d FROM DEPT d
		 WHERE (s = d.address.street, c = d.address.city)
		   IN SELECT (s = e.address.street, c = e.address.city) FROM d.emps e`,
		// Q2 (§3.2)
		`SELECT (dname = d.name,
		         emps = SELECT e FROM EMP e WHERE e.address.city = d.address.city)
		 FROM DEPT d`,
		// General two-block WHERE nesting with WITH (§4)
		`SELECT x FROM X x WHERE x.a SUBSETEQ z WITH z = SELECT y.a FROM Y y WHERE x.b = y.b`,
		// COUNT between blocks (§2)
		`SELECT r FROM R r WHERE r.B = COUNT(SELECT s FROM S s WHERE r.C = s.C)`,
		// UNNEST special case (§5)
		`UNNEST(SELECT (SELECT (a = x.a, b = y.b) FROM Y y WHERE x.b = y.a) FROM X x)`,
		// §8 three-block chain
		`SELECT x FROM X x
		 WHERE x.a SUBSETEQ
		   SELECT y.a FROM Y y
		   WHERE x.b = y.b AND
		     y.c SUBSETEQ SELECT z.c FROM Z z WHERE y.d = z.d`,
		// Flat join query with two FROM items
		`SELECT (a = x.a, b = y.b) FROM X x, Y y WHERE x.b = y.a`,
		// Quantifiers
		`SELECT x FROM X x WHERE EXISTS v IN x.a (v = 3) AND FORALL w IN x.b (w > 0)`,
	}
	for _, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse failed for:\n%s\n%v", q, err)
		}
	}
}

func TestParseTupleVsParen(t *testing.T) {
	// (a = 1) is a tuple constructor by the documented rule.
	e := MustParse("(a = 1)")
	if _, ok := e.(*TupleCons); !ok {
		t.Errorf("(a = 1) parsed as %T, want TupleCons", e)
	}
	// (1 = a) is a parenthesized comparison.
	e = MustParse("(1 = a)")
	if b, ok := e.(*Binary); !ok || b.Op != OpEq {
		t.Errorf("(1 = a) parsed as %T", e)
	}
	// Empty tuple.
	if e := MustParse("()"); e.(*TupleCons).Fields != nil {
		t.Error("() should be the empty tuple")
	}
}

func TestParseNotIn(t *testing.T) {
	e := MustParse("x NOT IN s")
	b, ok := e.(*Binary)
	if !ok || b.Op != OpNotIn {
		t.Fatalf("parsed as %T %v", e, e)
	}
	// NOT (x IN s) is a different tree.
	e2 := MustParse("NOT (x IN s)")
	if u, ok := e2.(*Unary); !ok || u.Op != OpNot {
		t.Fatalf("NOT (x IN s) parsed as %T", e2)
	}
}

func TestParseWithChain(t *testing.T) {
	e := MustParse("x.a IN z WITH z = {1, 2}, w = {3}")
	let1, ok := e.(*Let)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if let1.V != "w" {
		t.Errorf("outer binding %s, want w (later WITH wraps earlier)", let1.V)
	}
	let2, ok := let1.Body.(*Let)
	if !ok || let2.V != "z" {
		t.Fatalf("inner let: %T %v", let1.Body, let1.Body)
	}
}

func TestParseFromListBacktracking(t *testing.T) {
	// The comma belongs to the tuple constructor, not the FROM list.
	e := MustParse("(a = SELECT y FROM Y y, b = 2)")
	tc, ok := e.(*TupleCons)
	if !ok || len(tc.Fields) != 2 {
		t.Fatalf("got %T %s", e, Format(e))
	}
	sfw, ok := tc.Fields[0].E.(*SFW)
	if !ok || len(sfw.Froms) != 1 {
		t.Fatalf("first field: %T", tc.Fields[0].E)
	}
	// And a genuine two-item FROM list still parses.
	e2 := MustParse("SELECT x FROM X x, Y y")
	if got := len(e2.(*SFW).Froms); got != 2 {
		t.Errorf("FROM items = %d, want 2", got)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT d FROM DEPT d WHERE d.name = \"x\"",
		"SELECT x FROM X x WHERE x.a SUBSETEQ z WITH z = SELECT y.a FROM Y y WHERE x.b = y.b",
		"UNNEST(SELECT (SELECT (a = x.a) FROM Y y WHERE x.b = y.a) FROM X x)",
		"SELECT x FROM X x WHERE NOT EXISTS v IN x.a (v = 1 OR v IN x.b)",
		"COUNT(s) + SUM(s) * 2",
		"{1, 2} UNION {3} MINUS {1}",
		"x.a SUPSET y.b INTERSECT y.c",
		"FORALL w IN x.a (w NOT IN z)",
		"[1, 2, 1]",
		"(x = 1 AND y = 2)",
	}
	for _, q := range queries {
		e1, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		s1 := Format(e1)
		e2, err := Parse(s1)
		if err != nil {
			t.Errorf("reparse of %q failed: %v", s1, err)
			continue
		}
		s2 := Format(e2)
		if s1 != s2 {
			t.Errorf("format not stable:\n  %q\n  %q", s1, s2)
		}
	}
}

func TestFreeVars(t *testing.T) {
	e := MustParse(`SELECT (s = e.street, c = q) FROM d.emps e WHERE e.city = d.city`)
	fv := FreeVars(e)
	for _, want := range []string{"d", "q"} {
		if !fv[want] {
			t.Errorf("free var %s not found in %v", want, fv)
		}
	}
	if fv["e"] {
		t.Error("e is bound, should not be free")
	}

	// Quantifier and WITH binders.
	e = MustParse("EXISTS v IN z (v = x.a) AND w IN q WITH q = {1}")
	fv = FreeVars(e)
	if fv["v"] || fv["q"] {
		t.Errorf("bound vars leaked: %v", fv)
	}
	if !fv["z"] || !fv["x"] || !fv["w"] {
		t.Errorf("missing frees: %v", fv)
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	e := MustParse(`SELECT (a = COUNT(z)) FROM X x WHERE EXISTS v IN x.s (v IN z) WITH z = {1}`)
	var n int
	Walk(e, func(Expr) bool { n++; return true })
	if n < 10 {
		t.Errorf("Walk visited only %d nodes", n)
	}
	// Early cutoff.
	var m int
	Walk(e, func(Expr) bool { m++; return false })
	if m != 1 {
		t.Errorf("Walk with false should visit 1 node, visited %d", m)
	}
}

func TestParseKeywordsAsIdentifiersRejected(t *testing.T) {
	if _, err := Parse("SELECT select FROM X x"); err == nil {
		t.Error("keyword as identifier should fail")
	}
}

func TestPosReporting(t *testing.T) {
	_, err := Parse("SELECT x FROM X x WHERE @")
	if err == nil || !strings.Contains(err.Error(), "1:25") {
		t.Errorf("error should cite position 1:25: %v", err)
	}
}

// Lex scans the entire input, returning the token stream (terminated by a
// TokEOF token) or the first lexical error.
func Lex(src string) ([]Token, error) {
	toks, err := appendTokens(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}
