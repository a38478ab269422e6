package analysis

// CacheSinks exposes errnocache's sink list to the repository tests.
var CacheSinks = cacheSinks
