package store

// FailoverWorthy exposes the failover client's rule to the external status
// table test, which also reads the resilience and cluster errors.
var FailoverWorthy = failoverWorthy
