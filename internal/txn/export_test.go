package txn

// CoreStripes exposes the stripe count to the runtime-level tests, which
// pick thread IDs that alias.
const CoreStripes = coreStripes
