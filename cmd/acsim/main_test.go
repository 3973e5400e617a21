package main

import "os"

// Example runs the Section 6 pair that footnote 7's revocation is for: an
// oblivious probe next to a foolish Read300, with every machine flag set.
// The foolish manager is revoked once.
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
	// read490 (oblivious)
	//   block I/Os     2244 (demand 2244, read-ahead 0, write-back 0)
	//   accesses       5850 reads, 0 writes (3606 hits, 2244 misses)
	//   fbehavior      0 calls
	//   metadata       1 opens, 1 inode reads
	//   manager        0 decisions, 0 mistakes, revoked false
	// read300 (foolish)
	//   block I/Os     1848 (demand 1848, read-ahead 0, write-back 0)
	//   accesses       6550 reads, 0 writes (4702 hits, 1848 misses)
	//   fbehavior      3 calls
	//   metadata       1 opens, 1 inode reads
	//   manager        386 decisions, 351 mistakes, revoked true
}

// Example_compare replays pjn's oblivious reference stream, captured on
// the original kernel, through trace.Compare's LRU, MRU, LRU-2 and OPT.
func Example_compare() {
	os.Args = []string{"acsim", "-apps", "pjn:oblivious", "-alloc", "global-lru", "-compare"}
	main()
	// Output:
	// pjn reference stream: 64337 refs, 3516 unique blocks; standalone caches of 819 blocks (6.4 MB)
	//   LRU     5963 misses   90.7% hit ratio
	//   MRU    50209 misses   22.0% hit ratio
	//   LRU-2   5338 misses   91.7% hit ratio
	//   OPT     3907 misses   93.9% hit ratio
}
