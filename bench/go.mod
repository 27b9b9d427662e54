// gstmbench is a module of its own so that building it never touches the
// root module's build or tests. Its path sits under gstm/ on purpose: Go
// allows gstm/internal/... imports to any package whose import path starts
// with gstm/, and the benchmark measures those packages from outside.
module gstm/bench

go 1.22

require gstm v0.0.0

replace gstm => ../
