package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOpClassification(t *testing.T) {
	reducing := []ALUOp{OpAdd, OpMac, OpAbsDiffAcc, OpMin, OpMax, OpMacSub}
	for _, op := range reducing {
		if !op.Reducing() {
			t.Fatalf("%s must be reducing", op)
		}
	}
	for _, op := range []ALUOp{OpNop, OpMov, OpConstAssign} {
		if op.Reducing() {
			t.Fatalf("%s must not be reducing", op)
		}
	}
	for _, op := range []ALUOp{OpMac, OpAbsDiffAcc, OpMacSub} {
		if !op.TwoOperand() {
			t.Fatalf("%s needs two operands", op)
		}
	}
	for _, op := range []ALUOp{OpAdd, OpMin, OpMax} {
		if op.TwoOperand() {
			t.Fatalf("%s is single-operand", op)
		}
	}
}

func TestOpSemantics(t *testing.T) {
	cases := []struct {
		op   ALUOp
		a, b float64
		want float64
	}{
		{OpAdd, 3, 0, 3},
		{OpMac, 3, 4, 12},
		{OpMacSub, 3, 4, -12},
		{OpAbsDiffAcc, 3, 7, 4},
		{OpAbsDiffAcc, 7, 3, 4},
		{OpMov, 5, 0, 5},
	}
	for _, c := range cases {
		if got := c.op.Value(c.a, c.b); got != c.want {
			t.Fatalf("%s.Value(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
	if OpMin.Combine(3, 5) != 3 || OpMin.Combine(5, 3) != 3 {
		t.Fatal("min combine broken")
	}
	if OpMax.Combine(3, 5) != 5 {
		t.Fatal("max combine broken")
	}
	if OpAdd.Combine(1, 2) != 3 {
		t.Fatal("add combine broken")
	}
}

func TestIdentities(t *testing.T) {
	if OpAdd.Identity() != 0 || OpMac.Identity() != 0 {
		t.Fatal("additive identity must be 0")
	}
	if !math.IsInf(OpMin.Identity(), 1) || !math.IsInf(OpMax.Identity(), -1) {
		t.Fatal("min/max identities wrong")
	}
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		return OpAdd.Combine(OpAdd.Identity(), v) == v &&
			OpMin.Combine(OpMin.Identity(), v) == v &&
			OpMax.Combine(OpMax.Identity(), v) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCombineCommutativeAssociative checks the property §2.4.2 relies on:
// network aggregation in arbitrary tree order must be valid.
func TestCombineCommutativeAssociative(t *testing.T) {
	comm := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		for _, op := range []ALUOp{OpMin, OpMax} {
			if op.Combine(a, b) != op.Combine(b, a) {
				return false
			}
		}
		return OpAdd.Combine(a, b) == OpAdd.Combine(b, a)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Fatal("commutativity:", err)
	}
	assoc := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		for _, op := range []ALUOp{OpMin, OpMax} {
			if op.Combine(op.Combine(a, b), c) != op.Combine(a, op.Combine(b, c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Fatal("associativity:", err)
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream([]Inst{{Kind: KindLoad}, {Kind: KindStore}})
	a, ok := s.Next()
	if !ok || a.Kind != KindLoad {
		t.Fatal("first inst wrong")
	}
	b, ok := s.Next()
	if !ok || b.Kind != KindStore {
		t.Fatal("second inst wrong")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream should be exhausted")
	}
}

// TestReplayStreamChunks replays a chunked trace (empty chunks included)
// and checks that the cursor round-trips through SetPos at every position,
// chunk boundaries and both ends included.
func TestReplayStreamChunks(t *testing.T) {
	var chunks [][]Inst
	n := 0
	for _, size := range []int{0, 3, 1, 0, 0, 4, 2, 0} {
		c := make([]Inst, size)
		for i := range c {
			c[i].Count = n
			n++
		}
		chunks = append(chunks, c)
	}
	s := NewReplayStream(chunks)
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for want := 0; want < n; want++ {
		if s.Pos() != want {
			t.Fatalf("Pos = %d, want %d", s.Pos(), want)
		}
		in, ok := s.NextPtr()
		if !ok || in.Count != want {
			t.Fatalf("inst %d: got %+v, %v", want, in, ok)
		}
	}
	if _, ok := s.Next(); ok || s.Pos() != n {
		t.Fatalf("stream should be exhausted at %d, Pos = %d", n, s.Pos())
	}
	for pos := 0; pos <= n; pos++ {
		s.SetPos(pos)
		if s.Pos() != pos {
			t.Fatalf("SetPos(%d): Pos = %d", pos, s.Pos())
		}
		for want := pos; want < n; want++ {
			if in, ok := s.Next(); !ok || in.Count != want {
				t.Fatalf("after SetPos(%d): inst %d = %+v, %v", pos, want, in, ok)
			}
		}
		if _, ok := s.Next(); ok {
			t.Fatalf("after SetPos(%d): stream should be exhausted", pos)
		}
	}
	for _, bad := range []int{-1, n + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetPos(%d) should panic", bad)
				}
			}()
			s.SetPos(bad)
		}()
	}
}

func TestChainStream(t *testing.T) {
	c := NewChainStream(
		NewSliceStream([]Inst{{Kind: KindLoad}}),
		NewSliceStream(nil),
		NewSliceStream([]Inst{{Kind: KindGather}}),
	)
	var kinds []Kind
	for {
		in, ok := c.Next()
		if !ok {
			break
		}
		kinds = append(kinds, in.Kind)
	}
	if len(kinds) != 2 || kinds[0] != KindLoad || kinds[1] != KindGather {
		t.Fatalf("chained kinds = %v", kinds)
	}
}

func TestStringsAreStable(t *testing.T) {
	if OpMac.String() != "mac" || KindUpdate.String() != "update" {
		t.Fatal("mnemonics changed")
	}
	if ALUOp(200).String() == "" || Kind(200).String() == "" {
		t.Fatal("unknown values must still print")
	}
}
