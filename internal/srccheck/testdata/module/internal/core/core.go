// Package core mirrors the real module's typed-error helper, the
// panic the panics rule accepts in library code.
package core

import (
	"errors"
	"fmt"
)

// ErrCorrupt mirrors the real sentinel.
var ErrCorrupt = errors.New("corrupt")

// Corruptf mirrors the real typed-panic helper.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}
