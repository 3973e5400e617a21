package main

import "os"

// Example replays pjn's oblivious reference stream, captured on the
// original kernel, through trace.Compare's LRU, MRU, LRU-2 and OPT.
func Example() {
	os.Args = []string{"actrace", "-app", "pjn", "-mode", "oblivious", "-alloc", "global-lru", "-compare"}
	main()
	// Output:
	// pjn reference stream: 64337 refs, 3516 unique blocks; standalone caches of 819 blocks (6.4 MB)
	//   LRU     5963 misses   90.7% hit ratio
	//   MRU    50209 misses   22.0% hit ratio
	//   LRU-2   5338 misses   91.7% hit ratio
	//   OPT     3907 misses   93.9% hit ratio
}
