package csrduvi_test

import (
	"errors"
	"testing"

	"spmv/internal/core"
	"spmv/internal/csrdu"
	"spmv/internal/matgen"
)

func TestVerifyClean(t *testing.T) {
	m, err := fromCOO(matgen.Stencil2D(5))
	if err != nil {
		t.Fatalf("FromCOO: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Errorf("Verify on freshly encoded matrix: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	build := func(t *testing.T) *csrdu.Matrix {
		t.Helper()
		m, err := fromCOO(matgen.Stencil2D(5))
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
	t.Run("corrupt index stream", func(t *testing.T) {
		m := build(t)
		m.Ctl = m.Ctl[:len(m.Ctl)-1]
		if err := m.Verify(); err == nil {
			t.Fatal("truncated ctl stream passed Verify")
		}
	})
}
