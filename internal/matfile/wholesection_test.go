package matfile

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"math"
)

// Reference encoders: the tests build containers from whole-section
// byte slices with these, independently of Write's staged encoding,
// and FuzzCanonical holds Write's bytes to theirs.

func writeSections(w *bufio.Writer, sections ...[]byte) error {
	for _, s := range sections {
		if err := binary.Write(w, binary.LittleEndian, int64(len(s))); err != nil {
			return err
		}
		if _, err := w.Write(s); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(s)); err != nil {
			return err
		}
	}
	return nil
}

func int32Bytes(s []int32) []byte {
	out := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

func uint16Bytes(s []uint16) []byte {
	out := make([]byte, 2*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint16(out[i*2:], v)
	}
	return out
}

func floatBytes(s []float64) []byte {
	out := make([]byte, 8*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// bytesFloat decodes a whole values section, refusing a ragged tail.
func bytesFloat(b []byte) ([]float64, error) {
	if err := wholeElements(int64(len(b)), 8); err != nil {
		return nil, err
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}

func viBytes(vi8 []uint8, vi16 []uint16, vi32 []uint32) []byte {
	switch {
	case vi8 != nil:
		return append([]byte(nil), vi8...)
	case vi16 != nil:
		return uint16Bytes(vi16)
	default:
		out := make([]byte, 4*len(vi32))
		for i, v := range vi32 {
			binary.LittleEndian.PutUint32(out[i*4:], v)
		}
		return out
	}
}
