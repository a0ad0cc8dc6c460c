// Command prog exercises the unreachable rule's program root: main reaches
// what it calls and the functions it passes as values; nothing else is live.
package main

func main() { println(apply(double)) }

func apply(f func(int) int) int { return f(2) }

// double is never called by name, only passed to apply.
func double(x int) int { return 2 * x }

func unused() {} // want "unreachable: main\.unused is unreachable"
