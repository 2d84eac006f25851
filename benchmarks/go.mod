module ags/benchmarks

go 1.24

require ags v0.0.0

replace ags => ../
