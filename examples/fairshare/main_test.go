package main

// Example runs the program: its simulations are deterministic, so the
// printed numbers are the test.
func Example() {
	main()
	// Output:
	// Part 1: cs2+gli, both smart, 6.4 MB cache (is swapping necessary?)
	//   lru-sp:    cs2  10116 I/Os, gli   9250 I/Os, total  19366
	//   alloc-lru: cs2  11400 I/Os, gli  10480 I/Os, total  21880
	//   without swapping the mix does 13% more I/O
	//
	// Part 2: oblivious Read490 probe next to a foolish Read300 (are placeholders necessary?)
	//   background oblivious, lru-sp:  probe  1895 I/Os (baseline)
	//   background foolish,   lru-s:   probe  4395 I/Os (unprotected)
	//   background foolish,   lru-sp:  probe  1540 I/Os (placeholders protect)
}
