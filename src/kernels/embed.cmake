# Writes the text of INPUT to OUTPUT as one C++ raw string literal, for
# #include inside an initializer (kernels/jit.cpp embeds kernels/loops.hpp).
#   cmake -DINPUT=<file> -DOUTPUT=<file> -P embed.cmake
file(READ "${INPUT}" text)
file(WRITE "${OUTPUT}" "R\"idg_loops(${text})idg_loops\"\n")
