package main

// Example runs the program: its simulations are deterministic, so the
// printed numbers are the test.
func Example() {
	main()
	// Output:
	// Two greps over one ~9.4 MB tree, 6.4 MB cache, MRU policies:
	//   fixed ownership:      a  2343 I/Os, b  1343 I/Os, total  3686
	//   ownership follows use: a  2343 I/Os, b  1250 I/Os, total  3593 (1093 transfers)
}
