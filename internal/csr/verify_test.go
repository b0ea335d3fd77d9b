package csr

import (
	"errors"
	"testing"

	"spmv/internal/core"
	"spmv/internal/matgen"
)

func TestVerifyClean(t *testing.T) {
	c := matgen.Stencil2D(5)
	m, _ := FromCOO(c)
	if err := m.Verify(); err != nil {
		t.Errorf("Matrix: %v", err)
	}
	m32, err := From32(c)
	if err != nil {
		t.Fatalf("From32: %v", err)
	}
	if err := m32.Verify(); err != nil {
		t.Errorf("Matrix32: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	t.Run("non-monotone row pointer", func(t *testing.T) {
		m, _ := FromCOO(matgen.Stencil2D(5))
		m.RowPtr[2], m.RowPtr[3] = m.RowPtr[3], m.RowPtr[2]
		if err := m.Verify(); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("column out of range", func(t *testing.T) {
		m, _ := FromCOO(matgen.Stencil2D(5))
		m.ColInd[0] = int32(m.Cols())
		if err := m.Verify(); !errors.Is(err, core.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("row pointer span mismatch", func(t *testing.T) {
		m, _ := FromCOO(matgen.Stencil2D(5))
		m.RowPtr[len(m.RowPtr)-1]--
		if err := m.Verify(); err == nil {
			t.Fatal("shrunk row pointer span passed Verify")
		}
	})
	t.Run("values length mismatch", func(t *testing.T) {
		m, _ := FromCOO(matgen.Stencil2D(5))
		m.Values = m.Values[:len(m.Values)-1]
		if err := m.Verify(); err == nil {
			t.Fatal("short values array passed Verify")
		}
	})
}
