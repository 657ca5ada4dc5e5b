package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.T{}, kernel())
	flush(lib.T{})
	o := lib.Opts{Keyed: 1}.Defaults()
	o.Assigned = 2
	p := &o.Addressed
	o.Element[0] = *p
	fmt.Println(o, lib.Named{}, lib.NamedConst, lib.NamedVar)
}

// flush calls a method of an unnamed interface type, which declares
// nothing the probe could name.
func flush(v any) {
	if f, ok := v.(interface{ Flush() error }); ok {
		f.Flush()
	}
}
