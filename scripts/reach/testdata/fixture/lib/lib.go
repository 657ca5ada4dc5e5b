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
