// Package lib holds one function of every kind the probe tells apart.
package lib

var initialised = fromInit()

func fromInit() int { return 1 }

// Used is called from main.
func Used() int { return initialised + used() }

func used() int { return 2 }

// ViaAPI is called only from the api package.
func ViaAPI() int { return 3 }

// OnlyPurego is called only on the purego build.
func OnlyPurego() int { return 4 }

// T has a method named like an interface method; api aliases it.
type T struct{}

// String is live because fmt.Stringer names it.
func (T) String() string { return "T" }

// Seats is live because api aliases T.
func (T) Seats() int { return seats() }

func seats() int { return 7 }

// Unexported method no one calls.
func (T) idle() {}

// Dead is exported and called only by tests: the planted dead function.
func Dead() int { return deadHelper() }

func deadHelper() int { return 5 }

// Kept is dead but allowlisted; what it calls stays with it.
func Kept() int { return keptHelper() }

func keptHelper() int { return 6 }

// Opts plants one field of every kind the field rule tells apart.
type Opts struct {
	Keyed      int    // set by a keyed literal in main
	Assigned   int    // set by an assignment in main
	Addressed  int    // set through & in main
	Element    [1]int // set through an element assignment in main
	OnlyPurego int    // set only on the purego build
	Defaulted  int    // set only by its own default: unwritten
	Unwritten  int    // set only by lib_test.go: unwritten
	Allowed    int    // set nowhere, but allowlisted
	T                 // embedded: exempt
}

// Defaults fills in Opts' defaults.
func (o Opts) Defaults() Opts {
	if o.Defaulted == 0 {
		o.Defaulted = 5
	}
	return o
}

// Pair's fields are set by an unkeyed literal.
type Pair struct{ X, Y int }

var origin = Pair{0, 0}

// main names Named, NamedConst and NamedVar; only lib_test.go names
// TestOnly, TestOnlyConst and TestOnlyVar.
type (
	Named    struct{}
	TestOnly struct{}
)

const NamedConst, TestOnlyConst = 1, 2

var NamedVar, TestOnlyVar = 3, 4
