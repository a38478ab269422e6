package shard

// Parse exposes the HSH1 parser to the external fuzz target.
var Parse = parse
