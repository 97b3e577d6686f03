// Fixture for the errwrap rule: module sentinel errors are compared with
// errors.Is and wrapped with %w — never ==/!=, switch cases, or string
// matching on Error() text.
package errwrap

import (
	"errors"
	"fmt"
	"strings"
)

// The serving layer's sentinel family, redeclared in miniature.
var (
	ErrOverloaded = errors.New("engine overloaded")
	ErrDeadline   = errors.New("deadline exceeded")
)

func classify(err error) string {
	if err == ErrOverloaded { // want "sentinel ErrOverloaded compared with =="
		return "overloaded"
	}
	if ErrDeadline != err { // want "sentinel ErrDeadline compared with !="
		return "other"
	}
	return "deadline"
}

func classifySwitch(err error) string {
	switch err {
	case ErrOverloaded: // want "sentinel ErrOverloaded in a switch case"
		return "overloaded"
	default:
		return "other"
	}
}

func wrapBad() error {
	return fmt.Errorf("admission: %v", ErrOverloaded) // want "sentinel ErrOverloaded wrapped without %w"
}

func matchText(err error) bool {
	return strings.Contains(err.Error(), "overloaded") // want "string matching on Error\(\) text"
}

func compareText(err error) bool {
	return err.Error() == "engine overloaded" // want "string comparison on Error\(\) text"
}

// Good: errors.Is and %w keep the chain intact through wrapping.
func wrapGood(err error) error {
	if errors.Is(err, ErrDeadline) {
		return fmt.Errorf("request: %w", ErrDeadline)
	}
	return err
}

// Accepted: a justified directive silences exactly its line.
func sameSentinel(a error) bool {
	return a == ErrDeadline //drlint:ignore errwrap fixture: identity check on the sentinel value itself, never a returned error
}
