module golts/benchmark

go 1.21

require golts v0.0.0

replace golts => ../
