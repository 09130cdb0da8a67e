module doceph/benchmark

go 1.22

require doceph v0.0.0

replace doceph => ../
