package progen

// MinAllocSize exposes the allocation floor to the external test package,
// which cannot be internal because it runs programs through
// internal/canary, an importer of progen.
const MinAllocSize = minAllocSize
