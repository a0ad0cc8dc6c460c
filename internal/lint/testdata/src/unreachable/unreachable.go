// Package unreachable exercises the unreachable rule on a library surface.
// The corpus config lists it as an API package, so its exported functions
// and types are roots, alongside its init and its package-level vars.
package unreachable

import "fmt"

// Exported is an API root; helper is live through its call.
func Exported() string { return helper(circle{r: 1}) }

func helper(s shape) string { return fmt.Sprint(s.area(), s) }

// Counter is an exported type: its whole method set is API.
type Counter struct{ n int }

// Inc is live because Counter is exported.
func (c *Counter) Inc() { c.n++ }

// handlers reaches one as a value from a package-level initializer.
var handlers = map[string]func() int{"one": one}

func one() int { return 1 }

var registered []func() int

// init reaches register by a call and two as a value.
func init() { register(two) }

func register(f func() int) { registered = append(registered, f) }

func two() int { return 2 }

type shape interface{ area() float64 }

// circle is mentioned by live code, so every method it has is live: area
// through the shape interface, String through fmt, which the analysis
// cannot see into.
type circle struct{ r float64 }

func (c circle) area() float64 { return 3 * c.r * c.r }

func (c circle) String() string { return "circle" }

// square implements shape, but no live code mentions it.
type square struct{ s float64 }

func (q square) area() float64 { return q.s * q.s } // want "unreachable: unreachable\.\(square\)\.area is unreachable"

// orphan is dead, and so is what only it calls.
func orphan() int { return onlyFromOrphan() } // want "unreachable: unreachable\.orphan is unreachable"

func onlyFromOrphan() int { return len(handlers) } // want "unreachable: unreachable\.onlyFromOrphan is unreachable"

// kept is dead here, and says why it stays.
func kept() {} //gptlint:ignore unreachable corpus: its caller lives outside the analyzed packages
