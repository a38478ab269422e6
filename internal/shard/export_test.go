package shard

// Parse exposes the shard image parser to the external fuzz target.
var Parse = parse
