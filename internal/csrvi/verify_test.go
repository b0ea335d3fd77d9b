package csrvi_test

import (
	"errors"
	"math/rand"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csr"
	"spmv/internal/matgen"
)

func TestVerifyClean(t *testing.T) {
	m, err := csr.FromCOOVI(matgen.Stencil2D(5))
	if err != nil {
		t.Fatalf("FromCOO: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Errorf("Verify on freshly encoded matrix: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	build := func(t *testing.T) *csr.Matrix {
		t.Helper()
		m, err := csr.FromCOOVI(matgen.Stencil2D(5))
		if err != nil {
			t.Fatalf("FromCOO: %v", err)
		}
		return m
	}
	t.Run("val_ind out of range", func(t *testing.T) {
		m := build(t)
		switch {
		case m.VI8 != nil:
			m.VI8[0] = uint8(len(m.Unique))
		case m.VI16 != nil:
			m.VI16[0] = uint16(len(m.Unique))
		default:
			m.VI32[0] = uint32(len(m.Unique))
		}
		if err := m.Verify(); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("two val_ind arrays", func(t *testing.T) {
		m := build(t)
		m.VI16 = make([]uint16, m.NNZ())
		m.VI32 = make([]uint32, m.NNZ())
		if err := m.Verify(); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("plain codec short of values", func(t *testing.T) {
		m, err := csr.FromCOOVI(matgen.RandomUniform(rand.New(rand.NewSource(3)), 40, 40, 4, matgen.Values{}))
		if err != nil {
			t.Fatalf("FromCOO: %v", err)
		}
		if m.IndexWidth() != 0 {
			t.Fatalf("all-distinct values built a %d-byte val_ind", m.IndexWidth())
		}
		m.Unique = m.Unique[:m.NNZ()-1]
		if err := m.Verify(); !errors.Is(err, core.ErrShape) {
			t.Fatalf("got %v, want ErrShape", err)
		}
	})
	t.Run("column out of range", func(t *testing.T) {
		m := build(t)
		m.ColInd[0] = int32(m.Cols())
		if err := m.Verify(); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}
