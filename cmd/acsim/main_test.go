package main

import "os"

// Example runs the Section 6 pair that footnote 7's revocation is for: an
// oblivious probe next to a foolish Read300, with every flag set. The
// foolish manager is revoked once.
func Example() {
	os.Args = []string{"acsim", "-apps", "read490:oblivious,read300:foolish",
		"-revoke", "-no-readahead", "-seed", "7", "-cache", "6.4", "-alloc", "lru-sp"}
	main()
	// Output:
	// 6.4 MB cache, lru-sp, seed 7
	// app        mode        elapsed s  block IOs       hits     misses     hit%
	// read490    oblivious        76.1       2244       3606       2244    61.6%
	// read300    foolish          75.5       1848       4702       1848    71.8%
	// cache: 3273 evictions, 386 overrules, 351 placeholder hits, 1 revocations
}
