package tmql

import (
	"fmt"
	"sync"
	"testing"
)

// TestParseConcurrentPooledTokens parses distinct texts from many goroutines
// at once — under -race this checks that no two Parse calls share a pooled
// token buffer — and checks every tree against its own text.
func TestParseConcurrentPooledTokens(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src := fmt.Sprintf(`SELECT y.a FROM Y y WHERE y.b = %d AND y.d = %d`, g, i)
				if i%3 == 0 {
					src = fmt.Sprintf(`SELECT x FROM X x WHERE x.b = %d AND x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`, i)
				}
				e, err := Parse(src)
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := Format(e), Format(MustParse(src)); got != want {
					t.Errorf("goroutine %d: Parse(%q) = %s, want %s", g, src, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParseLexErrorAfterSuccess pins that a lexical error right after a
// successful parse (which returned its buffer to the pool) reports the same
// text as before pooling, and that the next parse is unaffected.
func TestParseLexErrorAfterSuccess(t *testing.T) {
	const good = `SELECT x FROM X x WHERE x.b = 17`
	for _, c := range []struct{ src, want string }{
		{`SELECT x FROM X x WHERE x.b = 1 # 2`, `1:33: unexpected character '#'`},
		{`SELECT "abc FROM X x`, `1:8: unterminated string`},
		{`SELECT 1e+ FROM X x`, `1:8: malformed float exponent`},
	} {
		if _, err := Parse(good); err != nil {
			t.Fatal(err)
		}
		_, err := Parse(c.src)
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, want %q", c.src, err, c.want)
		}
		if _, lexErr := Lex(c.src); lexErr == nil || lexErr.Error() != c.want {
			t.Errorf("Lex(%q) error = %v, want %q", c.src, lexErr, c.want)
		}
		e, err := Parse(good)
		if err != nil || Format(e) != Format(MustParse(good)) {
			t.Errorf("Parse(%q) after a lex error = %v, %v", good, e, err)
		}
	}
}

// TestParseTokenSliceNotAllocated shows on a point_x text that Parse no
// longer allocates its token slice: it allocates exactly what parsing a
// freshly lexed slice does, minus the allocations that growing that slice
// takes.
func TestParseTokenSliceNotAllocated(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of pooled paths are not exact under -race")
	}
	const src = `SELECT x FROM X x WHERE x.b = 17`
	lexed := func() []Token {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		return toks
	}
	grown := make([]Token, 0, 64)
	lexAllocs := testing.AllocsPerRun(100, func() { lexed() })
	textAllocs := testing.AllocsPerRun(100, func() { _, _ = appendTokens(grown[:0], src) })
	unpooled := testing.AllocsPerRun(100, func() {
		p := &Parser{toks: lexed()}
		if _, err := p.parseExpr(); err != nil {
			t.Fatal(err)
		}
	})
	pooled := testing.AllocsPerRun(100, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	sliceAllocs := lexAllocs - textAllocs
	if sliceAllocs < 1 {
		t.Fatalf("lexing into a nil slice costs %v allocations beyond the tokens' own; the test needs a text long enough to grow it", sliceAllocs)
	}
	if pooled > unpooled-sliceAllocs {
		t.Errorf("Parse allocates %v times; an unpooled parse allocates %v, of which %v grow the token slice", pooled, unpooled, sliceAllocs)
	}
}
