package sandbox

// WatchCacheInserts calls f, under the cache's lock, with every build the
// compile cache stores from now on, until the returned stop is called.
func WatchCacheInserts(f func(*Program)) (stop func()) {
	cache.Lock()
	cache.onInsert = f
	cache.Unlock()
	return func() {
		cache.Lock()
		cache.onInsert = nil
		cache.Unlock()
	}
}
