package main

// Example runs the program: its simulations are deterministic, so the
// printed numbers are the test.
func Example() {
	main()
	// Output:
	// oblivious sort:  6464 block I/Os, 57.448127s
	// smart sort:      4890 block I/Os, 41.233251s
	// I/Os cut by 24%
}
