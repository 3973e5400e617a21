package main

// Example runs the program: its simulations are deterministic, so the
// printed numbers are the test.
func Example() {
	main()
	// Output:
	// default priorities:   7382 block I/Os, 98/640 index blocks evicted
	// index at priority 1:  4922 block I/Os, 0/640 index blocks evicted
	// I/Os cut by 33%
}
