module hydee/benchmark

go 1.24

require hydee v0.0.0

replace hydee => ../
