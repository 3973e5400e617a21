package main

// Example runs the program: its simulations are deterministic, so the
// printed numbers are the test.
func Example() {
	main()
	// Output:
	// original kernel (LRU):   9216 block I/Os, 80.951459s
	// app-controlled (MRU):    2664 block I/Os, 26.447191s
	// I/Os cut by 71%
}
